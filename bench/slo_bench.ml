open Farm_sim
open Farm_core
open Farm_workloads
open Farm_fault
open Farm_harness

(* SLO under gray failures: TATP driven open-loop through a bounded
   admission queue while one machine degrades — slow/lossy NIC, asymmetric
   partition, CPU throttling, lease flapping — with a healthy baseline for
   reference. Per scenario: goodput, sojourn percentiles (p50/p99/p999,
   queueing included — the open loop is what makes gray damage visible)
   with the sample count they rest on, shed load, and the longest
   cluster-wide commit stall from the 1 ms timeline sampler. The SLO probes gate each scenario: a stall must
   coincide with suspicion evidence, queues must drain after heal, nothing
   may stay parked.

   Everything derives from the per-scenario seed; scenarios are
   independent worlds sharded over domains, and the JSON artifact
   (BENCH_slo.json) is byte-identical across reruns and --jobs counts. *)

type scenario = {
  label : string;
  shape : Arrivals.shape;
  rate : float;  (* cluster-wide arrivals/s *)
  faults : Schedule.event list;  (* relative to the load window start *)
}

let machines = 6
let subscribers = 2_000
let queue_cap = 64
let serve_workers = 2
let seed = 42

let params = { Params.default with Params.lease_duration = Time.ms 5 }
let lease = params.Params.lease_duration

(* Fault window: degrade at 30 ms, heal at 80 ms, load stops at [window]. *)
let fault_at = Time.ms 30
let heal_at = Time.ms 80

let ev at fault = { Schedule.at; fault }

let scenarios ~window:_ =
  [
    { label = "baseline"; shape = Arrivals.Poisson; rate = 40_000.; faults = [] };
    {
      label = "slow_nic";
      shape = Arrivals.Self_similar { b = 0.72 };
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Slow_nic { machine = 1; delay_factor = 4.; loss = 0.08 });
          ev heal_at (Schedule.Nic_heal 1);
        ];
    };
    {
      label = "asym_partition";
      shape = Arrivals.Poisson;
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Asym_partition { srcs = [ 1 ]; dsts = [ 2 ] });
          ev heal_at Schedule.Heal;
        ];
    };
    {
      label = "cpu_slow";
      shape = Arrivals.Diurnal { trough = 0.4 };
      rate = 40_000.;
      faults =
        [
          ev fault_at (Schedule.Cpu_slow { machine = 1; factor = 4 });
          ev heal_at (Schedule.Cpu_heal 1);
        ];
    };
    {
      label = "lease_flap";
      shape = Arrivals.Flash { at = 0.45; magnitude = 5.; width = 0.3 };
      rate = 40_000.;
      faults =
        [
          ev fault_at
            (Schedule.Lease_flap
               { machine = 1; period = lease; count = 5;
                 stall = Time.div_int (Time.mul_int lease 3) 4 });
        ];
    };
  ]

(* Longest zero-run (ms) of the sampler's merged per-ms commits between the
   first and last nonzero bins. *)
let max_stall_ms c =
  let commits = Array.of_list (List.map snd (Cluster.timeline_column c "commits")) in
  List.fold_left (fun m (a, b) -> max m (b - a + 1)) 0 (Probes.zero_runs commits)

(* One scenario's JSON row, its rendered output block and its probe
   violations. *)
let run_scenario ~window ~drain (sc : scenario) =
  let c = Cluster.create ~seed ~params ~machines () in
  let tatp = Tatp.create c ~subscribers ~regions_per_table:2 in
  Tatp.load c tatp;
  (* armed after load: the attribution below covers the open-loop window
     only. Determinism-inert — the history is identical either way. *)
  Cluster.set_blame c true;
  let op = Tatp.op tatp in
  let start = Cluster.now c in
  (* open loop first so its queue gauges join the sampler's standard set *)
  let ol =
    Openloop.start c ~queue_cap ~workers:serve_workers ~shape:sc.shape ~rate:sc.rate
      ~duration:window ~op
  in
  let horizon = Time.add (Time.add start window) (Time.add drain (Time.ms 200)) in
  Cluster.start_sampling c ~until:horizon;
  Nemesis.run c ~start { Schedule.seed; machines; events = sc.faults };
  Cluster.run_until c ~at:(Time.add start window);
  Openloop.stop ol;
  Cluster.run_for c ~d:drain;
  Cluster.heal c;
  let settled = Cluster.quiesce c in
  Cluster.run_for c ~d:(Time.ms 60);
  let st = Openloop.stats ol in
  let violations =
    (if settled then [] else [ "slo: cluster failed to quiesce" ])
    @ Probes.no_global_stall ~start c @ Probes.no_parked_tx c
    @ Probes.queues_drained
        ~queues:(fun () -> Openloop.queue_depths ~members_only:true ol)
        ()
  in
  let submitted = Stats.Counter.get st.Openloop.submitted in
  let shed = Stats.Counter.get st.Openloop.shed in
  let completed = Stats.Counter.get st.Openloop.completed in
  let failed = Stats.Counter.get st.Openloop.failed in
  let pct p = float_of_int (Stats.Hist.percentile st.Openloop.sojourn p) /. 1e3 in
  let samples = Stats.Hist.count st.Openloop.sojourn in
  let stall = max_stall_ms c in
  let goodput = float_of_int completed /. Time.to_s_float window in
  let stranded = Openloop.stranded ol in
  let blame = Cluster.blame_totals c in
  let tail = Cluster.tail_blame c in
  let block =
    Fmt.str "%-14s %-24s offered %6d  shed %5d  goodput %9.0f/s@.%s%s@.%s@.%a"
      sc.label
      (Fmt.str "%a" Arrivals.pp_shape sc.shape)
      (submitted + shed) shed goodput
      (Fmt.str
         "               sojourn p50 %8.1f us  p99 %8.1f us  p999 %8.1f us  (%d samples)  \
          max-stall %d ms"
         (pct 50.) (pct 99.) (pct 99.9) samples stall)
      (if stranded = 0 then ""
       else Fmt.str "  stranded %d (evicted/dead machine)" stranded)
      (Fmt.str "               p999 attribution (slowest tx): %s" (Bench_util.pct_line tail))
      Fmt.(list ~sep:nop (fmt "               VIOLATION: %s@."))
      violations
  in
  let open Bench_util in
  let row =
    Json.Obj
      [
        ("label", Json.Str sc.label);
        ("shape", Json.Str (Fmt.str "%a" Arrivals.pp_shape sc.shape));
        ("rate_per_s", fixed 0 sc.rate);
        ("offered", int (submitted + shed));
        ("submitted", int submitted);
        ("shed", int shed);
        ("completed", int completed);
        ("failed", int failed);
        ("stranded", int stranded);  (* admitted but never served: lost to eviction/death *)
        ("goodput_per_s", fixed 1 goodput);
        ("sojourn_samples", int samples);
        ("p50_us", fixed 1 (pct 50.));
        ("p99_us", fixed 1 (pct 99.));
        ("p999_us", fixed 1 (pct 99.9));
        ("max_stall_ms", int stall);  (* longest cluster-wide zero-commit run *)
        ("blame_ns", obj_of int blame);
        ("tail_blame_ns", obj_of int tail);
        ("violations", Json.Arr (List.map (fun v -> Json.Str v) violations));
      ]
  in
  (row, block, violations)

(* The CI gate, per scenario label: the probes stay clean, goodput keeps
   above baseline/1.2 and p99 under baseline*1.2. The tail is gated at p99,
   not p999: of one seed's ~4,800 sojourns about 48 lie beyond p99 but only
   about 5 beyond p999, and under slow_nic those few are whichever
   transactions the degraded NIC caught, so p999 moves several-fold between
   seeds and no 1.2x band holds it. *)
let gate =
  [
    {
      Gate.rows = "scenarios";
      key = "label";
      bounds =
        [
          ("goodput_per_s", Gate.Floor 1.2);
          ("p99_us", Gate.Ceiling 1.2);
          ("violations", Gate.Exact);
        ];
    };
  ]

let run ?(smoke = false) ?check_baseline () =
  Bench_util.header "SLO under gray failures (open-loop TATP)"
    "graceful degradation: Fig 16's lease stack under slow-but-alive faults";
  (* the checked-in baseline is a full-window artifact; comparing a smoke
     run against it would always "regress" *)
  let smoke = smoke && check_baseline = None in
  let window = if smoke then Time.ms 60 else Time.ms 120 in
  let drain = Time.ms 40 in
  Fmt.pr
    "machines=%d  tatp subscribers=%d  open-loop rate=40000/s  queue cap=%d/machine  \
     window=%dms@.@."
    machines subscribers queue_cap
    (Bench_util.ms_of window);
  let results =
    Bench_util.shard_map (fun sc -> run_scenario ~window ~drain sc) (scenarios ~window)
  in
  List.iter (fun (_, block, _) -> Fmt.pr "%s@." block) results;
  let bad = List.concat_map (fun (_, _, v) -> v) results in
  if bad = [] then Fmt.pr "slo probes: all scenarios clean@."
  else Fmt.pr "slo probes: %d violation(s) — see above@." (List.length bad);
  let report =
    Json.Obj
      [
        ("bench", Json.Str "slo");
        ("scenarios", Json.Arr (List.map (fun (row, _, _) -> row) results));
      ]
  in
  match check_baseline with
  | Some file ->
      Fmt.pr "@.checking against baseline %s:@." file;
      if not (Gate.report (Gate.check ~file gate report)) then begin
        Fmt.epr "slo: SLO regression against %s@." file;
        exit 1
      end
  | None ->
      if not smoke then Bench_util.write_json "BENCH_slo.json" report
