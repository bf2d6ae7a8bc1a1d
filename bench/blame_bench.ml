open Farm_sim
open Farm_core
open Farm_workloads
open Farm_fault
open Farm_harness

(* Latency attribution: where does transaction time actually go?

   Four independent worlds exercise the blame layer (DESIGN.md §9) over
   its full surface:

     tatp           closed-loop TATP — the protocol-dominated steady
                    state: execute / propagation / poll split, plus the
                    top slowest transactions' cross-machine critical paths
     ycsb_zipf      a contended zipfian read-modify-write mix with the
                    hot keys packed into one region — the heat tracker
                    must rank that region first, and lock-wait blame must
                    show up
     kill_recovery  the Fig 9 failure: one machine killed mid-window —
                    the recovery era surfaces as lock-wait / propagation
     gray_nic       open-loop TATP while one machine's NIC degrades —
                    admission queueing and propagation dominate the tail

   Every scenario asserts the exclusivity invariant the layer is built on:
   with blame armed, the ns sum over the non-admission categories equals
   the ns sum of the commit-phase accumulators exactly (admission precedes
   the span, so it lives outside the phase clock). Scenarios shard over
   domains; BENCH_blame.json is byte-identical across reruns and --jobs. *)

let seed = 42
let machines = 6

(* ycsb_zipf: hot keys land in rs.(0) because cells map to regions in
   contiguous blocks, not round-robin — zipf skew then concentrates there. *)
let zipf_cells = 256
let zipf_regions = 4

(* The invariant the whole layer rests on, checked per scenario so a leak
   fails the bench loudly: every span nanosecond is claimed exactly once. *)
let check_exact ~label blame phase =
  let blame_ns =
    List.fold_left (fun acc (n, v) -> if n = "admission" then acc else acc + v) 0 blame
  in
  let phase_ns = List.fold_left (fun acc (_, v) -> acc + v) 0 phase in
  if blame_ns <> phase_ns then
    Fmt.failwith "blame/%s: blame sum %d ns <> phase sum %d ns" label blame_ns phase_ns;
  (blame_ns, phase_ns)

let render ~label ~committed ~aborted ~blame ~phase ~tail ~hists ~heat ~paths =
  let blame_ns, phase_ns = check_exact ~label blame phase in
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%s: committed %d  aborted %d\n" label committed aborted;
  pf "  %-12s %12s %6s %10s %10s\n" "category" "total(us)" "n" "p50(us)" "p99(us)";
  List.iter
    (fun (name, ns) ->
      match List.assoc_opt name hists with
      | Some h ->
          pf "  %-12s %8d.%03d %6d %10.1f %10.1f\n" name (ns / 1000) (abs ns mod 1000)
            (Stats.Hist.count h)
            (float_of_int (Stats.Hist.percentile h 50.) /. 1e3)
            (float_of_int (Stats.Hist.percentile h 99.) /. 1e3)
      | None -> pf "  %-12s %8d.%03d\n" name (ns / 1000) (abs ns mod 1000))
    blame;
  pf "  exact: blame %d ns == phase %d ns (admission excluded)\n" blame_ns phase_ns;
  pf "  tail (slowest exemplars): %s\n" (Bench_util.pct_line tail);
  if heat <> [] then begin
    pf "  heat (hottest first):\n";
    List.iter
      (fun (h : Cluster.heat) ->
        pf "    r%-4d score %8d  access %8d  conflict %6d\n" h.Cluster.h_region
          h.Cluster.h_score h.Cluster.h_access h.Cluster.h_conflict)
      heat
  end;
  List.iter (fun p -> pf "%s\n" p) paths;
  Buffer.contents buf

let take k l = List.filteri (fun i _ -> i < k) l

(* One scenario's JSON row and its rendered output block. *)
let collect ~label ~paths c =
  let committed = Cluster.total_committed c and aborted = Cluster.total_aborted c in
  let blame = Cluster.blame_totals c in
  let phase = Cluster.phase_totals c in
  let tail = Cluster.tail_blame c in
  let hists = Cluster.merged_blame_hists c in
  let heat = take 5 (Cluster.heat_report c) in
  let block =
    render ~label ~committed ~aborted ~blame ~phase ~tail ~hists ~heat ~paths
  in
  let open Bench_util in
  let heat_json (h : Cluster.heat) =
    Json.Obj
      [
        ("region", int h.Cluster.h_region);
        ("score", int h.Cluster.h_score);
        ("access", int h.Cluster.h_access);
        ("conflict", int h.Cluster.h_conflict);
      ]
  in
  let row =
    Json.Obj
      [
        ("label", Json.Str label);
        ("committed", int committed);
        ("aborted", int aborted);
        ("blame_ns", obj_of int blame);
        ("phase_ns", obj_of int phase);
        ("tail_blame_ns", obj_of int tail);
        ("heat", Json.Arr (List.map heat_json heat));
      ]
  in
  (row, block)

(* {1 Scenario 1: closed-loop TATP} *)

let run_tatp ~duration () =
  let c = Cluster.create ~seed ~machines () in
  let tatp = Tatp.create c ~subscribers:2_000 ~regions_per_table:2 in
  Tatp.load c tatp;
  (* armed after the bulk load so the exemplars — and the 4096-slot trace
     ring — cover the measured window, not the load phase *)
  Cluster.set_blame c true;
  Cluster.set_tracing c true;
  let _ = Driver.run c ~workers:4 ~warmup:(Time.ms 2) ~duration ~op:(Tatp.op tatp) in
  collect ~label:"tatp" ~paths:(take 1 (Cluster.critpaths c ~k:1)) c

(* {1 Scenario 2: contended zipf RMW — heat ranking} *)

let run_zipf ~duration () =
  let c = Cluster.create ~seed ~machines () in
  let rs = Array.init zipf_regions (fun _ -> Cluster.alloc_region_exn c) in
  let per_region = zipf_cells / zipf_regions in
  let addrs =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              Array.init zipf_cells (fun i ->
                  let r = rs.(i / per_region) in
                  let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                  Txn.write tx a (Bytes.make 8 '\000');
                  a))
        with
        | Ok arr -> arr
        | Error e -> Fmt.failwith "blame/zipf setup: %a" Txn.pp_abort e)
  in
  Cluster.set_blame c true;
  let op (ctx : Driver.worker_ctx) =
    let rng = ctx.Driver.rng in
    match
      Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
          for _ = 1 to 2 do
            let a = addrs.(Ycsb.zipf rng zipf_cells) in
            let v = Int64.to_int (Bytes.get_int64_le (Txn.read tx a ~len:8) 0) in
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
            Txn.write tx a b
          done)
    with
    | Ok () -> true
    | Error _ -> false
  in
  let _ = Driver.run c ~workers:8 ~warmup:(Time.ms 2) ~duration ~op in
  (* the acceptance bar: skew must surface as a ranking, not just counts *)
  (match Cluster.heat_report c with
  | top :: _ when top.Cluster.h_region = rs.(0).Wire.rid -> ()
  | top :: _ ->
      Fmt.failwith "blame/ycsb_zipf: hot region r%d not ranked first (got r%d)"
        rs.(0).Wire.rid top.Cluster.h_region
  | [] -> Fmt.failwith "blame/ycsb_zipf: empty heat report");
  collect ~label:"ycsb_zipf" ~paths:[] c

(* {1 Scenario 3: the Fig 9 failure — kill one machine mid-window}

   Where does latency go while the membership protocol detects, evicts and
   recovers? Committed-transaction blame over a window containing the kill
   shows the recovery era as lock-wait (transactions queued on regions
   whose primary died) and propagation (appends waiting out the
   reconfiguration), on top of the healthy baseline. *)

let run_kill ~window () =
  let c = Cluster.create ~seed ~machines () in
  let tatp = Tatp.create c ~subscribers:2_000 ~regions_per_table:2 in
  Tatp.load c tatp;
  Cluster.set_blame c true;
  let start = Cluster.now c in
  let ol =
    Openloop.start c ~queue_cap:64 ~workers:2 ~shape:Arrivals.Poisson ~rate:40_000.
      ~duration:window ~op:(Tatp.op tatp)
  in
  let events = [ { Schedule.at = Time.ms 10; fault = Schedule.Crash 1 } ] in
  Nemesis.run c ~start { Schedule.seed; machines; events };
  Cluster.run_until c ~at:(Time.add start window);
  Openloop.stop ol;
  Cluster.run_for c ~d:(Time.ms 40);
  ignore (Cluster.quiesce c);
  collect ~label:"kill_recovery" ~paths:[] c

(* {1 Scenario 4: open-loop TATP under a slow NIC} *)

let run_gray ~window () =
  let c = Cluster.create ~seed ~machines () in
  let tatp = Tatp.create c ~subscribers:2_000 ~regions_per_table:2 in
  Tatp.load c tatp;
  Cluster.set_blame c true;
  let start = Cluster.now c in
  let ol =
    Openloop.start c ~queue_cap:64 ~workers:2 ~shape:Arrivals.Poisson ~rate:40_000.
      ~duration:window ~op:(Tatp.op tatp)
  in
  let events =
    [
      { Schedule.at = Time.ms 10;
        fault = Schedule.Slow_nic { machine = 1; delay_factor = 4.; loss = 0.05 } };
      { Schedule.at = Time.div_int window 2; fault = Schedule.Nic_heal 1 };
    ]
  in
  Nemesis.run c ~start { Schedule.seed; machines; events };
  Cluster.run_until c ~at:(Time.add start window);
  Openloop.stop ol;
  Cluster.run_for c ~d:(Time.ms 40);
  Cluster.heal c;
  ignore (Cluster.quiesce c);
  collect ~label:"gray_nic" ~paths:[] c

let run ?(smoke = false) () =
  Bench_util.header "Latency attribution (blame categories, heat, critical paths)"
    "every committed transaction's latency split exactly into exclusive \
     categories; decaying region heat ranks the contended data";
  let duration = if smoke then Time.ms 10 else Time.ms 30 in
  let window = if smoke then Time.ms 30 else Time.ms 60 in
  let scenarios =
    [
      (fun () -> run_tatp ~duration ());
      (fun () -> run_zipf ~duration ());
      (fun () -> run_kill ~window ());
      (fun () -> run_gray ~window ());
    ]
  in
  let results = Bench_util.shard_map (fun f -> f ()) scenarios in
  List.iter (fun (_, block) -> print_string block) results;
  Fmt.pr "exclusivity: blame sums match phase sums to the ns in all %d scenarios@."
    (List.length results);
  if not smoke then
    Bench_util.write_json "BENCH_blame.json"
      (Json.Obj
         [
           ("bench", Json.Str "blame");
           ("scenarios", Json.Arr (List.map (fun (row, _) -> row) results));
         ])
