open Farm_sim
open Farm_core
open Farm_obs
open Farm_fault
open Farm_harness

(* The observability spine (lib/obs): windowed CPU utilization, exact span
   accounting for committed transactions, determinism under recording
   on/off, the bounded flight-recorder ring, and counter plumbing through
   the commit pipeline. *)

let test name fn = Alcotest.test_case name `Quick fn
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Utilization over a window must only charge busy time accumulated after
   the window's snapshot: 100us of work before the snapshot, 10us inside a
   100us window, is 10% — not 110%. *)
let cpu_utilization_window () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~threads:1 in
  Proc.spawn e (fun () ->
      Cpu.exec cpu ~cost:(Time.us 100);
      let snap = Cpu.snapshot cpu in
      let t0 = Engine.now e in
      Cpu.exec cpu ~cost:(Time.us 10);
      Proc.sleep (Time.us 90);
      let u = Cpu.utilization cpu ~since:snap ~until:(Engine.now e) in
      Alcotest.(check (float 1e-9)) "window charges only new busy time" 0.1 u;
      ignore t0);
  Engine.run e

(* A committed transaction's span segments partition its lifetime exactly:
   they sum, to the nanosecond, to the end-to-end latency (finish time -
   begin_tx time), and the commit pipeline entered every write phase. *)
let span_accounting () =
  let c = Cluster.create ~seed:7 ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  Cluster.run_on c ~machine:0 (fun st ->
      let tx = Txn.begin_tx st ~thread:0 in
      let t0 = tx.Txn.t_started in
      let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
      Txn.write tx a (Bytes.make 8 'x');
      (match Commit.commit tx with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit aborted: %a" Txn.pp_abort e);
      let span = tx.Txn.span in
      let segs = Obs.Span.segments span in
      let sum = List.fold_left (fun acc (_, ns) -> acc + ns) 0 segs in
      let total = Obs.Span.total_ns span in
      check_bool "span is nonzero" true (total > 0);
      check_int "segments sum to the total, to the ns" total sum;
      check_int "total equals observed end-to-end latency"
        (Time.to_ns (Time.sub (State.now st) t0))
        total;
      List.iter
        (fun p ->
          check_bool
            (Fmt.str "entered %s" (Obs.point_name p))
            true
            (List.mem_assoc p segs))
        [ Obs.P_execute; Obs.P_lock; Obs.P_commit_backup; Obs.P_commit_primary ])

(* ...and the per-phase histograms saw that transaction. *)
let phase_hists_populated () =
  let c = Cluster.create ~seed:11 ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run st ~thread:0 (fun tx ->
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            Txn.write tx a (Bytes.make 8 'y'))
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit aborted: %a" Txn.pp_abort e);
  let hists = Cluster.merged_phase_hists c in
  check_bool "lock phase histogram nonempty" true
    (match List.assoc_opt "lock" hists with
    | Some h -> Stats.Hist.count h >= 1
    | None -> false);
  check_bool "commit-primary phase histogram nonempty" true
    (match List.assoc_opt "commit-primary" hists with
    | Some h -> Stats.Hist.count h >= 1
    | None -> false)

(* Tracing on vs off must not perturb the simulation: the same fuzz seed
   yields byte-identical event traces and identical commit counts. *)
let recording_is_inert () =
  let opts m =
    { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30; record = m }
  in
  let seed = 3 in
  let off = Explorer.run_one ~opts:(opts false) seed in
  let on = Explorer.run_one ~opts:(opts true) seed in
  Alcotest.(check (list string))
    "traces byte-identical with recording on/off" off.Explorer.trace on.Explorer.trace;
  check_int "committed identical" off.Explorer.committed on.Explorer.committed;
  Alcotest.(check (list string))
    "violations identical" off.Explorer.violations on.Explorer.violations;
  check_bool "recording off captures nothing" true (off.Explorer.recorder = []);
  check_bool "recording on captures protocol events" true (on.Explorer.recorder <> [])

(* A failing outcome renders its flight-recorder dump. *)
let failure_dumps_recorder () =
  let opts = { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30 } in
  let o = Explorer.run_one ~opts 3 in
  let forced = { o with Explorer.violations = [ "forced: injected for the test" ] } in
  let rendered = Fmt.str "%a" Explorer.pp_outcome forced in
  check_bool "dump mentions the flight recorder" true
    (contains rendered "flight recorder");
  check_bool "dump carries event lines" true
    (List.length forced.Explorer.recorder > 0)

(* The ring: disabled sinks record nothing; enabled sinks are bounded to
   [capacity] events, overwriting oldest-first. *)
let ring_bounds () =
  let e = Engine.create () in
  let o = Obs.create ~capacity:8 e ~machine:0 in
  for _ = 1 to 5 do
    Obs.event o Obs.K_suspect ~a:1 ~b:0 ~c:0
  done;
  check_int "disabled sink records nothing" 0 (Obs.total_events o);
  Alcotest.(check (list string)) "empty dump" [] (List.map snd (Obs.events o));
  Obs.set_enabled o true;
  for i = 1 to 20 do
    Obs.event o Obs.K_rdma_read ~a:i ~b:64 ~c:0
  done;
  check_int "all recordings counted" 20 (Obs.total_events o);
  check_int "ring bounded to capacity" 8 (List.length (Obs.events o));
  (* oldest-first: the surviving events are #13..#20, whose dst runs 13..20 *)
  let lines = List.map snd (Obs.events o) in
  check_bool "oldest surviving event is #13" true (contains (List.hd lines) "dst=m13")

(* The ring behind the flight recorder, tracer and sampler, against a list
   model: after k pushes into a ring of capacity cap it holds the last
   min k cap slots oldest first, counts all k, and its storage never
   exceeds twice the slots in use or its first allocation of 16 (plus the
   record and two array headers, 10 words). *)
let ring_matches_model =
  QCheck.Test.make ~name:"ring keeps the newest pushes in bounded storage" ~count:300
    QCheck.(triple (int_range 1 64) (int_range 1 4) (int_range 0 300))
    (fun (cap, stride, k) ->
      let r = Ring.create ~capacity:cap ~stride (-1) in
      let grown = ref true in
      for i = 0 to k - 1 do
        let h = Ring.push r i in
        for j = 0 to stride - 1 do
          Ring.set r h j ((i * stride) + j)
        done;
        let slots = max (2 * min (i + 1) cap) (min cap 16) in
        grown := !grown && Obj.reachable_words (Obj.repr r) <= 10 + (slots * (stride + 1))
      done;
      let slots = Ring.to_list r (fun tag h -> (tag, List.init stride (Ring.get r h))) in
      let model =
        List.filter_map
          (fun i -> if i >= k - cap then Some (i, List.init stride (fun j -> (i * stride) + j)) else None)
          (List.init k Fun.id)
      in
      slots = model && Ring.total r = k && !grown)

(* Each kind reaches exactly its sinks: its own counter always, the ring
   while recording, the tracer while tracing, and the shared cluster log
   for drops, milestones and nemesis actions. *)
let event_routing () =
  let e = Engine.create () in
  let log = Obs.create_log () in
  let o = Obs.create ~log e ~machine:3 in
  Obs.set_enabled o true;
  Tracer.set_enabled (Obs.tracer o) true;
  Obs.event o Obs.K_rdma_read ~a:1 ~b:64 ~c:0;
  Obs.event o Obs.K_ud_drop ~a:2 ~b:0 ~c:0;
  Obs.event o Obs.K_ms_region_lost ~a:7 ~b:0 ~c:0;
  Obs.event o Obs.K_fault ~a:4 ~b:0 ~c:0;
  (* a send without a flow id is no trace instant; a receive is nothing
     but one *)
  Obs.event o Obs.K_send ~a:1 ~b:32 ~c:0;
  Obs.event o Obs.K_msg_recv ~a:1 ~b:32 ~c:99;
  check_int "read counted" 1 (Obs.counter o Obs.C_rdma_read);
  check_int "drop counted" 1 (Obs.counter o Obs.C_ud_drop);
  check_int "send counted" 1 (Obs.counter o Obs.C_rpc_send);
  Alcotest.(check (list string))
    "ring: protocol steps and drops"
    [ "rdma-read dst=m1 bytes=64"; "ud-drop dst=m2"; "send dst=m1 bytes=32 rc" ]
    (List.map snd (Obs.events o));
  Alcotest.(check (list (pair int int)))
    "log: drop, milestone, fault as (machine, a)"
    [ (3, 2); (3, 7); (3, 4) ]
    (List.map (fun (r : Obs.record) -> (r.Obs.r_machine, r.Obs.r_a)) (Obs.log_records log));
  check_int "one milestone counted" 1 (Obs.log_milestones log);
  Alcotest.(check string)
    "milestone tag" "region-lost:7"
    (Obs.milestone_tag Obs.K_ms_region_lost ~a:7);
  check_int "tracer: the drop and the flow-carrying receive" 2 (Tracer.total (Obs.tracer o))

(* Every protocol point's short name, exported trace label and [K_phase]
   tags, pinned. Most labels also appear in pinned outputs; VALIDATE,
   COMMIT-WAIT, lock-refuse and the rec-* labels appear in none. *)
let point_vocabulary () =
  let table =
    [
      (Obs.P_execute, "execute", "execute");
      (Obs.P_lock, "lock", "LOCK");
      (Obs.P_validate, "validate", "VALIDATE");
      (Obs.P_commit_backup, "commit-backup", "COMMIT-BACKUP");
      (Obs.P_commit_primary, "commit-primary", "COMMIT-PRIMARY");
      (Obs.P_truncate, "truncate", "TRUNCATE");
      (Obs.P_commit_wait, "commit-wait", "COMMIT-WAIT");
      (Obs.P_log_append, "log-append", "log-append");
      (Obs.P_log_process, "log-process", "log-process");
      (Obs.P_lock_grant, "lock-grant", "lock-grant");
      (Obs.P_lock_refuse, "lock-refuse", "lock-refuse");
      (Obs.P_drain, "drain", "rec-drain");
      (Obs.P_region_active, "region-active", "rec-region-active");
      (Obs.P_decide, "decide", "rec-decide");
    ]
  in
  check_bool "the table lists every point, in order" true
    (List.map (fun (p, _, _) -> p) table = Obs.all_points);
  let e = Engine.create () in
  let o = Obs.create ~capacity:64 e ~machine:0 in
  Obs.set_enabled o true;
  let tr = Obs.tracer o in
  Tracer.set_enabled tr true;
  List.iter
    (fun (p, name, _) ->
      check_string "short name" name (Obs.point_name p);
      Tracer.slice tr ~tid:0 ~label:(Obs.point_label p) ~start:0 ~arg:0 ~txm:(-1) ~txt:0
        ~txl:0 ~flow_in:0 ~flow_out:0;
      Obs.event o Obs.K_phase ~a:(Obs.point_edge ~after:false p) ~b:1 ~c:2;
      Obs.event o Obs.K_phase ~a:(Obs.point_edge ~after:true p) ~b:1 ~c:2)
    table;
  Alcotest.(check (list string))
    "exported trace labels"
    (List.map (fun (_, _, label) -> label) table)
    (List.filter_map
       (fun ev ->
         if Json.(to_str (member "ph" ev)) = "X" then Some Json.(to_str (member "name" ev))
         else None)
       (Test_util.trace_events (Tracer.export_json [ tr ])));
  Alcotest.(check (list string))
    "K_phase tags"
    (List.concat_map
       (fun (_, name, _) ->
         [ "phase before-" ^ name ^ " tx=1.2"; "phase after-" ^ name ^ " tx=1.2" ])
       table)
    (List.map snd (Obs.events o))

(* Events one machine records at one sim instant keep their emission
   order in the merged flight dump. *)
let flight_dump_same_instant_order () =
  let c = Cluster.create ~seed:3 ~machines:3 () in
  Cluster.set_recording c true;
  let o = (Cluster.machine c 0).State.obs in
  Obs.event o Obs.K_suspect ~a:1 ~b:0 ~c:0;
  Obs.event o Obs.K_suspect ~a:2 ~b:0 ~c:0;
  Alcotest.(check (list string))
    "suspicions in emission order"
    [ "m0 suspect m1"; "m0 suspect m2" ]
    (List.filter_map
       (fun line ->
         match String.index_opt line ']' with
         | Some i when contains line "suspect" ->
             Some (String.sub line (i + 2) (String.length line - i - 2))
         | _ -> None)
       (Cluster.flight_dump c))

(* The counter spine end to end: a committed write transaction bumps the
   coordinator's commit counter and the primaries' log/lock counters. *)
let counters_plumbed () =
  let c = Cluster.create ~seed:5 ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  Cluster.run_on c ~machine:0 (fun st ->
      match
        Api.run st ~thread:0 (fun tx ->
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            Txn.write tx a (Bytes.make 8 'z'))
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit aborted: %a" Txn.pp_abort e);
  (* let lease renewal timers fire at least once *)
  Cluster.run_for c ~d:(Time.ms 30);
  let coord = (Cluster.machine c 0).State.obs in
  check_bool "coordinator counted the commit" true (Obs.counter coord Obs.C_tx_commit >= 1);
  check_bool "coordinator appended log records" true (Obs.counter coord Obs.C_log_append >= 1);
  let merged = Cluster.merged_counters c in
  let get name = Option.value ~default:0 (List.assoc_opt name merged) in
  check_bool "someone granted locks" true (get "lock-ok" >= 1);
  check_bool "log records were processed" true (get "log-record" >= 1);
  check_bool "lease traffic flowed" true (get "lease-renewal" >= 1)

(* {1 The causal tracer and the timeline sampler} *)

(* {2 Shared fixture}: a small traced + sampled cluster, committing from a
   non-primary machine so LOCK and COMMIT-BACKUP records cross the
   fabric. *)
let run_traced_cluster seed =
  let c = Cluster.create ~seed ~machines:3 () in
  Cluster.set_tracing c true;
  Cluster.start_sampling c ~until:(Time.ms 50);
  let r = Cluster.alloc_region_exn c in
  let coord = (r.Wire.primary + 1) mod 3 in
  let cell =
    Cluster.run_on c ~machine:coord (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              Txn.write tx a (Bytes.make 8 '\000');
              a)
        with
        | Ok a -> a
        | Error e -> Alcotest.failf "setup: %a" Txn.pp_abort e)
  in
  for i = 1 to 5 do
    Cluster.run_on c ~machine:coord (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              ignore (Txn.read tx cell ~len:8);
              Txn.write tx cell (Bytes.make 8 (Char.chr (64 + i))))
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "tx %d: %a" i Txn.pp_abort e)
  done;
  (* run past the sampling horizon so the tick stops and the engine can
     drain *)
  Cluster.run_for c ~d:(Time.ms 60);
  c

(* Sampler delta math against hand-counted ops: a Cumulative series rows
   the per-interval delta of a monotonic counter, a Level series rows the
   instantaneous value, both at exact tick instants, stopping at the
   horizon. *)
let sampler_delta_math () =
  let e = Engine.create () in
  let tl = Timeline.create e ~machine:0 in
  let work = ref 0 and level = ref 0 in
  Timeline.add_series tl ~name:"ops" ~kind:Timeline.Cumulative (fun () -> !work);
  Timeline.add_series tl ~name:"depth" ~kind:Timeline.Level (fun () -> !level);
  let bumps = [| 3; 0; 7; 2; 5 |] in
  Array.iteri
    (fun i n ->
      Engine.schedule e
        ~at:(Time.ns ((i * 1000) + 500))
        (fun () ->
          work := !work + n;
          level := n))
    bumps;
  Timeline.start tl ~interval:(Time.ns 1000) ~until:(Time.ns 5000);
  Engine.run e;
  check_bool "sampler stopped at the horizon" true (not (Timeline.running tl));
  check_int "engine drained (no perpetual tick)" 0 (Engine.pending e);
  let rows = Timeline.rows tl in
  check_int "one row per interval" (Array.length bumps) (List.length rows);
  List.iteri
    (fun i (t, vals) ->
      check_int (Fmt.str "tick %d instant" i) ((i + 1) * 1000) t;
      check_int (Fmt.str "interval %d delta" i) bumps.(i) vals.(0);
      check_int (Fmt.str "interval %d level" i) bumps.(i) vals.(1))
    rows

(* A series added after a finished run widens the next start's rows:
   every row of the second run carries the new column. *)
let sampler_restart_adds_column () =
  let e = Engine.create () in
  let tl = Timeline.create e ~machine:0 in
  Timeline.add_series tl ~name:"ops" ~kind:Timeline.Level (fun () -> 3);
  Timeline.start tl ~interval:(Time.ns 1000) ~until:(Time.ns 2000);
  Engine.run e;
  Timeline.add_series tl ~name:"depth" ~kind:Timeline.Level (fun () -> 7);
  Timeline.start tl ~interval:(Time.ns 1000) ~until:(Time.ns 4000);
  Engine.run e;
  let rows = Timeline.rows tl in
  check_int "one row per tick of the second run" 2 (List.length rows);
  List.iter
    (fun (_, vals) ->
      Alcotest.(check (array int)) "row carries both columns" [| 3; 7 |] vals)
    rows

(* The cluster sampler's commit deltas, summed over every machine and
   interval, equal the commit counters exactly. *)
let sampler_matches_counters () =
  let c = run_traced_cluster 33 in
  check_bool "the fixture committed" true (Cluster.total_committed c >= 6);
  let total = ref 0 in
  Array.iter
    (fun (st : State.t) ->
      let tl = Obs.timeline st.State.obs in
      let idx = ref (-1) in
      List.iteri (fun i n -> if n = "commits" then idx := i) (Timeline.series_names tl);
      check_bool "commits series registered" true (!idx >= 0);
      List.iter (fun (_, vals) -> total := !total + vals.(!idx)) (Timeline.rows tl))
    c.Cluster.machines;
  check_int "sampled deltas sum to the counter total" (Cluster.total_committed c) !total

(* Sampler and tracer storage follows use: a cluster sampled for 50 ms and
   traced through six transactions holds about the rows and slots it
   wrote, far below the 4096 of each ring's capacity. *)
let obs_storage_follows_use () =
  let c = run_traced_cluster 21 in
  (* words a ring of [slots] slots holds at most: twice the slots, each a
     tag and [stride] ints, plus the headers and the static labels *)
  let bound ~stride slots = (2 * max slots 16 * (stride + 1)) + 64 in
  Array.iter
    (fun (st : State.t) ->
      let tl = Obs.timeline st.State.obs and tr = Obs.tracer st.State.obs in
      let rows = List.length (Timeline.rows tl) in
      let stride = List.length (Timeline.series_names tl) + 1 in
      let words = Obj.reachable_words (Obj.repr (Timeline.ring tl)) in
      check_int "one row per 1 ms tick" 50 rows;
      check_bool
        (Fmt.str "timeline: %d words for %d rows" words rows)
        true
        (words <= bound ~stride rows && words * 16 < 4096 * (stride + 1));
      let slots = Tracer.total tr in
      let words = Obj.reachable_words (Obj.repr (Tracer.ring tr)) in
      check_bool "tracer recorded, without wrapping" true (slots > 0 && slots < 4096);
      check_bool
        (Fmt.str "tracer: %d words for %d slots" words slots)
        true
        (words <= bound ~stride:10 slots))
    c.Cluster.machines

(* Same seed, two runs: both export artifacts are byte-identical. *)
let dumps_deterministic () =
  let c1 = run_traced_cluster 33 in
  let c2 = run_traced_cluster 33 in
  check_bool "trace dumps byte-identical" true
    (String.equal (Cluster.trace_dump c1) (Cluster.trace_dump c2));
  check_bool "timeline dumps byte-identical" true
    (String.equal (Cluster.timeline_dump c1) (Cluster.timeline_dump c2))

(* Tracing on vs off must not perturb a fuzz schedule, and tracing on is
   itself deterministic: same seed, byte-identical JSON. *)
let trace_export_deterministic () =
  let opts p =
    {
      Explorer.default_opts with
      machines = 5;
      workers = 1;
      duration = Time.ms 20;
      perfetto = p;
    }
  in
  let seed = 9 in
  let a = Explorer.run_one ~opts:(opts true) seed in
  let b = Explorer.run_one ~opts:(opts true) seed in
  let off = Explorer.run_one ~opts:(opts false) seed in
  (match (a.Explorer.perfetto_json, b.Explorer.perfetto_json) with
  | Some ja, Some jb -> check_bool "same seed, byte-identical trace JSON" true (String.equal ja jb)
  | _ -> Alcotest.fail "perfetto json missing");
  check_bool "tracing off renders no json" true (off.Explorer.perfetto_json = None);
  Alcotest.(check (list string))
    "histories identical with tracing on/off" off.Explorer.trace a.Explorer.trace;
  check_int "committed identical" off.Explorer.committed a.Explorer.committed;
  (* the abort breakdown rides on every outcome *)
  List.iter
    (fun k ->
      check_bool (Fmt.str "%s cause reported" k) true
        (match List.assoc_opt k a.Explorer.abort_causes with Some v -> v >= 0 | None -> false))
    [ "lock-refused"; "validate-failed"; "timeout"; "other" ]

(* The span buffer is gated and bounded: a disabled tracer records
   nothing; an enabled one keeps the newest [capacity] slots. *)
let tracer_ring_bounded () =
  let e = Engine.create () in
  let tr = Tracer.create ~capacity:4 e ~machine:0 in
  let slice ~start ~arg =
    Tracer.slice tr ~tid:0 ~label:"execute" ~start ~arg ~txm:(-1) ~txt:0 ~txl:0
      ~flow_in:0 ~flow_out:0
  in
  slice ~start:0 ~arg:0;
  check_int "disabled tracer records nothing" 0 (Tracer.total tr);
  Tracer.set_enabled tr true;
  for i = 1 to 10 do
    slice ~start:(i * 10) ~arg:i
  done;
  check_int "all recordings counted" 10 (Tracer.total tr);
  let slices =
    List.filter
      (fun ev -> Json.(to_str (member "ph" ev)) = "X")
      (Test_util.trace_events (Tracer.export_json [ tr ]))
  in
  check_int "export holds exactly capacity slices" 4 (List.length slices);
  (* newest survive: slice #10 started at ts 100 ns = 0.1 us *)
  check_int "newest slice survived" 1
    (List.length (List.filter (fun ev -> Json.(to_num (member "ts" ev)) = 0.1) slices))

(* Parse the trace export back and schema-check it: every event carries
   the required fields, flow starts pair with finishes, and LOCK /
   COMMIT-BACKUP arrows cross machines. *)
let trace_schema_sane () =
  let c = run_traced_cluster 21 in
  let events = Test_util.trace_events (Cluster.trace_dump c) in
  check_bool "trace has events" true (List.length events > 0);
  let slices = Hashtbl.create 64 in
  let starts = Hashtbl.create 64 in
  let ends = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let str k = Json.(to_str (member k ev)) and num k = Json.(to_num (member k ev)) in
      let ph = str "ph" in
      let ts = num "ts" in
      let pid = int_of_float (num "pid") in
      let tid = int_of_float (num "tid") in
      check_bool "known phase" true (List.mem ph [ "X"; "M"; "i"; "s"; "f" ]);
      check_bool "timestamp nonnegative" true (ts >= 0.0);
      check_bool "named" true (String.length (str "name") > 0);
      match ph with
      | "X" ->
          check_bool "slice duration nonnegative" true (num "dur" >= 0.0);
          (* several slices can share a start instant on one thread; keep
             them all *)
          Hashtbl.add slices (pid, tid, ts) (str "name")
      | "s" -> Hashtbl.replace starts (int_of_float (num "id")) (pid, tid, ts)
      | "f" -> Hashtbl.replace ends (int_of_float (num "id")) (pid, tid, ts)
      | _ -> ())
    events;
  check_bool "trace carries flows" true (Hashtbl.length starts > 0);
  check_bool "every flow start has a finish" true
    (Hashtbl.fold (fun id _ acc -> acc && Hashtbl.mem ends id) starts true);
  let cross step =
    Hashtbl.fold
      (fun id (spid, stid, sts) acc ->
        acc
        ||
        match Hashtbl.find_opt ends id with
        | Some (fpid, ftid, fts) ->
            fpid <> spid
            && List.mem ("log-append " ^ step) (Hashtbl.find_all slices (spid, stid, sts))
            && List.mem ("log-process " ^ step) (Hashtbl.find_all slices (fpid, ftid, fts))
        | None -> false)
      starts false
  in
  check_bool "cross-machine LOCK arrow" true (cross "LOCK");
  check_bool "cross-machine COMMIT-BACKUP arrow" true (cross "COMMIT-BACKUP")

(* ...and the timeline export: aligned columns, t_ns leading, and the
   merged commits column summing to the cluster's commit total. *)
let timeline_schema_sane () =
  let c = run_traced_cluster 21 in
  let root = Json.of_string (Cluster.timeline_dump c) in
  check_bool "interval is positive" true (Json.(to_num (member "interval_ns" root)) > 0.0);
  let series = List.map Json.to_str Json.(to_list (member "series" root)) in
  check_bool "t_ns leads the columns" true (List.hd series = "t_ns");
  check_bool "commits column present" true (List.mem "commits" series);
  let width = List.length series in
  let commits_col = ref 0 in
  List.iteri (fun i n -> if n = "commits" then commits_col := i) series;
  let rows = Json.(to_list (member "rows" root)) in
  check_bool "timeline has rows" true (rows <> []);
  let sum = ref 0 in
  List.iter
    (fun row ->
      let cells = Json.to_list row in
      check_int "row width matches series" width (List.length cells);
      sum := !sum + int_of_float (Json.to_num (List.nth cells !commits_col)))
    rows;
  check_int "merged commits column sums to the counter total"
    (Cluster.total_committed c) !sum

let suites =
  [
    ( "obs",
      [
        test "cpu utilization is windowed" cpu_utilization_window;
        test "span segments sum to end-to-end latency" span_accounting;
        test "phase histograms populated" phase_hists_populated;
        test "recording on/off does not perturb a fuzz seed" recording_is_inert;
        test "failing outcome dumps the flight recorder" failure_dumps_recorder;
        test "flight-recorder ring is gated and bounded" ring_bounds;
        QCheck_alcotest.to_alcotest ring_matches_model;
        test "event kinds reach exactly their sinks" event_routing;
        test "flight dump keeps same-instant emission order" flight_dump_same_instant_order;
        test "every protocol point's name, label and tags" point_vocabulary;
        test "counters plumbed through the stack" counters_plumbed;
      ] );
    ( "obs.trace",
      [
        test "sampler delta math vs hand-counted ops" sampler_delta_math;
        test "sampler restart after add_series widens rows" sampler_restart_adds_column;
        test "sampler and tracer storage follow use" obs_storage_follows_use;
        test "sampler deltas match the commit counters" sampler_matches_counters;
        test "trace and timeline dumps are deterministic" dumps_deterministic;
        test "tracing on/off: same history, byte-identical JSON" trace_export_deterministic;
        test "tracer span buffer is gated and bounded" tracer_ring_bounded;
        test "trace export parses and cross-machine arrows pair" trace_schema_sane;
        test "timeline export parses and columns align" timeline_schema_sane;
      ] );
  ]
