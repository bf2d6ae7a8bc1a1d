open Farm_sim
open Farm_core
open Farm_obs
open Farm_fault

(* The latency-attribution layer (DESIGN.md §9): exact per-span blame
   partitions, the aggregate blame/phase reconciliation, critical-path
   reconstruction against a hand-checked two-machine run, heat-decay
   arithmetic, heat ranking under skew, and determinism-inertness of the
   whole thing. *)

let test name fn = Alcotest.test_case name `Quick fn
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {1 Per-span exactness}

   With blame armed, every committed span's category claims sum to its
   end-to-end latency to the nanosecond — the invariant is per
   transaction, not just in aggregate. *)
let per_span_blame_exact () =
  let c = Cluster.create ~seed:7 ~machines:3 () in
  Cluster.set_blame c true;
  let r = Cluster.alloc_region_exn c in
  let coord = (r.Wire.primary + 1) mod 3 in
  let spans = ref [] in
  Cluster.run_on c ~machine:coord (fun st ->
      for i = 1 to 5 do
        (* the last attempt's span is the committed one *)
        let last = ref None in
        match
          Api.run_retry st ~thread:0 (fun tx ->
              last := Some tx.Txn.span;
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              Txn.write tx a (Bytes.make 8 (Char.chr (64 + i))))
        with
        | Ok () -> spans := Option.get !last :: !spans
        | Error e -> Alcotest.failf "tx %d: %a" i Txn.pp_abort e
      done);
  check_int "captured spans" 5 (List.length !spans);
  List.iter
    (fun span ->
      let blame = Obs.Span.blame span in
      let total = Obs.Span.total_ns span in
      check_bool "span nonzero" true (total > 0);
      check_bool "blame nonempty" true (blame <> []);
      check_int "blame categories sum to the span total, to the ns" total
        (List.fold_left (fun acc (_, ns) -> acc + ns) 0 blame))
    !spans

(* {1 Aggregate reconciliation and the arming window}

   Transactions committed before arming must not skew the comparison:
   arming resets the exact accumulators, so afterwards the cluster-wide
   non-admission blame total equals the cluster-wide phase total. *)
let aggregate_reconciliation () =
  let c = Cluster.create ~seed:11 ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  let write_txs n =
    Cluster.run_on c ~machine:1 (fun st ->
        for i = 1 to n do
          match
            Api.run_retry st ~thread:0 (fun tx ->
                let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                Txn.write tx a (Bytes.make 8 (Char.chr (64 + i))))
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "tx: %a" Txn.pp_abort e
        done)
  in
  (* phase ns recorded with blame off — the "bulk load" *)
  write_txs 4;
  check_bool "phases recorded before arming" true
    (List.fold_left (fun acc (_, v) -> acc + v) 0 (Cluster.phase_totals c) > 0);
  Cluster.set_blame c true;
  check_int "arming resets the reconciliation window" 0
    (List.fold_left (fun acc (_, v) -> acc + v) 0 (Cluster.phase_totals c));
  write_txs 6;
  let blame_sum =
    List.fold_left
      (fun acc (name, v) -> if name = "admission" then acc else acc + v)
      0 (Cluster.blame_totals c)
  in
  let phase_sum = List.fold_left (fun acc (_, v) -> acc + v) 0 (Cluster.phase_totals c) in
  check_bool "window saw transactions" true (phase_sum > 0);
  check_int "blame total == phase total, to the ns" phase_sum blame_sum

(* {1 Critical path, hand-checked}

   Two machines, one committed cross-machine transaction in the armed
   window — so the slowest exemplar IS that transaction and everything
   about its path can be checked against independently captured truth:
   span total, blame partition, time-ordered hops, a critical
   coordinator-spine slice, and a critical remote log-process hop on the
   other machine. *)
let critpath_hand_computed () =
  (* replication 2 so two machines can host a region: primary + 1 backup *)
  let params = { Params.default with Params.replication = 2 } in
  let c = Cluster.create ~seed:21 ~params ~machines:2 () in
  let r = Cluster.alloc_region_exn c in
  let coord = (r.Wire.primary + 1) mod 2 in
  Cluster.set_blame c true;
  Cluster.set_tracing c true;
  let last = ref None in
  Cluster.run_on c ~machine:coord (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            last := Some tx.Txn.span;
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            Txn.write tx a (Bytes.make 8 'p'))
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "tx: %a" Txn.pp_abort e);
  (* the last attempt's span is the committed one *)
  let span = match !last with Some s -> s | None -> Alcotest.fail "no span" in
  let tracers =
    Array.to_list
      (Array.map (fun (st : State.t) -> Obs.tracer st.State.obs) c.Cluster.machines)
  in
  let exemplars =
    Array.fold_left
      (fun acc (st : State.t) -> acc @ Obs.exemplars st.State.obs)
      [] c.Cluster.machines
  in
  check_bool "the committed tx became an exemplar" true (exemplars <> []);
  match Critpath.paths ~tracers ~exemplars ~k:1 with
  | [] -> Alcotest.fail "no critical path"
  | _ :: _ :: _ -> Alcotest.fail "k=1 must yield one path"
  | [ p ] ->
      check_int "path total is the span total" (Obs.Span.total_ns span) p.Critpath.p_total;
      check_int "path blame partitions the total exactly" p.Critpath.p_total
        (List.fold_left (fun acc (_, ns) -> acc + ns) 0 p.Critpath.p_blame);
      check_int "coordinator machine" coord p.Critpath.p_txm;
      check_bool "path has hops" true (p.Critpath.p_hops <> []);
      let sorted = ref true and last = ref min_int in
      List.iter
        (fun (h : Critpath.hop) ->
          if h.Critpath.h_ts < !last then sorted := false;
          last := h.Critpath.h_ts)
        p.Critpath.p_hops;
      check_bool "hops are time-ordered" true !sorted;
      check_bool "a critical execute slice sits on the coordinator" true
        (List.exists
           (fun (h : Critpath.hop) ->
             h.Critpath.h_crit
             && h.Critpath.h_machine = coord
             && contains h.Critpath.h_name "execute")
           p.Critpath.p_hops);
      check_bool "a critical remote log-process hop sits on the primary" true
        (List.exists
           (fun (h : Critpath.hop) ->
             h.Critpath.h_crit
             && h.Critpath.h_machine = r.Wire.primary
             && contains h.Critpath.h_name "log-process")
           p.Critpath.p_hops);
      (* rendering and export marking agree with the reconstruction *)
      let rendered = Fmt.str "%a" Critpath.pp_path p in
      check_bool "rendering names the tx" true
        (contains rendered (Fmt.str "m%d.t%d" p.Critpath.p_txm p.Critpath.p_txt));
      let crit_hops =
        List.length (List.filter (fun (h : Critpath.hop) -> h.Critpath.h_crit) p.Critpath.p_hops)
      in
      let marked dump =
        List.length
          (List.filter
             (fun ev ->
               match Farm_harness.Json.member "args" ev with
               | Farm_harness.Json.Obj args -> List.mem_assoc "crit" args
               | _ -> false)
             (Test_util.trace_events dump))
      in
      check_int "export marks exactly the critical hops" crit_hops
        (marked (Cluster.trace_dump_critical c ~k:1));
      check_int "unmarked export carries no crit field" 0 (marked (Cluster.trace_dump c))

(* {1 Heat decay arithmetic}

   Pure integer halving: [v lsr (elapsed / half_life)], timestamps
   advanced by whole half-lives only. *)
let heat_decay_math () =
  let h = Heat.create ~half_life_ns:1_000 () in
  for _ = 1 to 8 do
    Heat.access h ~now:0 ~region:7
  done;
  Heat.conflict h ~now:0 ~region:7;
  (match Heat.report h ~now:0 with
  | [ s ] ->
      check_int "fresh access count" 8 s.Heat.hs_access;
      check_int "fresh conflict count" 1 s.Heat.hs_conflict;
      check_int "score weighs conflicts 4x" 12 s.Heat.hs_score
  | l -> Alcotest.failf "expected one region, got %d" (List.length l));
  (match Heat.report h ~now:2_500 with
  | [ s ] ->
      check_int "two half-lives: 8 lsr 2" 2 s.Heat.hs_access;
      check_int "conflict decayed to zero" 0 s.Heat.hs_conflict;
      check_int "decayed score" 2 s.Heat.hs_score
  | l -> Alcotest.failf "expected one region, got %d" (List.length l));
  check_bool "fully decayed regions drop out" true (Heat.report h ~now:100_000 = [])

(* Lazy decay leaves no residue: probing at intermediate instants must not
   change what a later report sees. *)
let heat_probe_frequency_independent () =
  let quiet = Heat.create ~half_life_ns:1_000 () in
  let probed = Heat.create ~half_life_ns:1_000 () in
  let feed h =
    for _ = 1 to 100 do
      Heat.access h ~now:0 ~region:3
    done;
    Heat.conflict h ~now:250 ~region:3;
    Heat.conflict h ~now:4_100 ~region:3
  in
  feed quiet;
  feed probed;
  (* probe the second copy at awkward (non-multiple) instants *)
  List.iter (fun t -> ignore (Heat.report probed ~now:t)) [ 300; 1_100; 2_700; 4_150 ];
  let final h = Heat.report h ~now:6_500 in
  Alcotest.(check bool)
    "probe frequency does not change the decayed values" true
    (final quiet = final probed)

(* {1 Heat ranking under skew}

   Two regions, 10:1 access skew plus all the conflicts on the hot one:
   the cluster heat report must rank the hot region first. *)
let heat_ranks_hot_region () =
  let c = Cluster.create ~seed:13 ~machines:3 () in
  let hot = Cluster.alloc_region_exn c in
  let cold = Cluster.alloc_region_exn c in
  let hammer region n =
    Cluster.run_on c ~machine:1 (fun st ->
        for i = 1 to n do
          match
            Api.run_retry st ~thread:0 (fun tx ->
                let a = Txn.alloc tx ~size:8 ~region () in
                Txn.write tx a (Bytes.make 8 (Char.chr (64 + (i mod 26)))))
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "tx: %a" Txn.pp_abort e
        done)
  in
  hammer hot.Wire.rid 30;
  hammer cold.Wire.rid 3;
  match Cluster.heat_report c with
  | [] -> Alcotest.fail "empty heat report"
  | top :: rest ->
      check_int "hot region ranked first" hot.Wire.rid top.Cluster.h_region;
      check_bool "cold region reported too" true
        (List.exists (fun (h : Cluster.heat) -> h.Cluster.h_region = cold.Wire.rid) rest);
      check_bool "strictly hotter" true
        (match
           List.find_opt
             (fun (h : Cluster.heat) -> h.Cluster.h_region = cold.Wire.rid)
             rest
         with
        | Some ch -> top.Cluster.h_score > ch.Cluster.h_score
        | None -> false)

(* {1 Determinism-inertness}

   Blame rides the explorer's [record] switch: on vs off, the simulated
   history is identical; on vs on, the blame report itself is identical. *)
let blame_is_inert_and_deterministic () =
  let opts m =
    { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30; record = m }
  in
  let seed = 3 in
  let off = Explorer.run_one ~opts:(opts false) seed in
  let on = Explorer.run_one ~opts:(opts true) seed in
  let on2 = Explorer.run_one ~opts:(opts true) seed in
  Alcotest.(check (list string))
    "histories identical with blame on/off" off.Explorer.trace on.Explorer.trace;
  check_int "committed identical" off.Explorer.committed on.Explorer.committed;
  check_bool "blame off reports nothing" true (off.Explorer.blame = []);
  check_bool "blame on reports categories" true (on.Explorer.blame <> []);
  Alcotest.(check (list (pair string int)))
    "blame report is deterministic under seed replay" on.Explorer.blame on2.Explorer.blame

(* ...and a failing outcome surfaces the blame split next to the flight
   recorder. *)
let failure_prints_blame () =
  let opts = { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30 } in
  let o = Explorer.run_one ~opts 3 in
  let forced = { o with Explorer.violations = [ "forced: injected for the test" ] } in
  let rendered = Fmt.str "%a" Explorer.pp_outcome forced in
  check_bool "dump carries the latency-blame section" true
    (contains rendered "latency blame")

let suites =
  [
    ( "blame",
      [
        test "every committed span's blame sums to its total" per_span_blame_exact;
        test "cluster blame reconciles with phases, arming resets" aggregate_reconciliation;
        test "critical path on a hand-checked 2-machine run" critpath_hand_computed;
        test "heat decay arithmetic" heat_decay_math;
        test "heat decay is probe-frequency independent" heat_probe_frequency_independent;
        test "heat ranks the hot region first" heat_ranks_hot_region;
        test "blame on/off is inert; reports deterministic" blame_is_inert_and_deterministic;
        test "failing outcome prints the blame split" failure_prints_blame;
      ] );
  ]
