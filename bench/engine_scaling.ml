open Farm_sim
open Farm_core
open Farm_workloads
open Farm_harness

(* Paper-scale engine benchmark (ROADMAP item 1).

   The paper's headline numbers come from a 90-machine cluster; every other
   experiment in this repo runs 6-12 machines because the protocol layers
   used to allocate per transaction. This bench tracks the trajectory that
   makes paper scale affordable: for each cluster size it runs the standard
   TATP mix with a fixed worker count per machine and records

     machines x host wall-clock x sim-tx/s x host-heap bytes/op x live MB
     x simulated NVRAM resident x the events and simulated ms of set-up's
     [Tatp.create] x the events queued at the window's end

   into BENCH_engine_scaling.json, alongside the commit-path micro numbers
   (bytes allocated per committed transaction, measured over GC-quiet
   windows with Farm_obs.Allocmeter) whose pre-refactor value is kept in
   the JSON as the regression baseline.

   Modes (set by bench/main.exe global flags):
     --smoke                run only the three smallest sizes (CI: every push)
     --check-baseline FILE  compare against the checked-in JSON under the
                            bounds of [gate] below and exit non-zero on a
                            regression. *)

(* 128 KB regions and 1 MB logs, the sizes of the checked-in
   BENCH_engine_scaling.json rows; each table keeps ~10 MB of capacity,
   plenty for the subscriber counts used here. Neither size sets host
   memory any more: ring logs only account bytes, and region memory is
   paged on first write, so a fleet's heap follows the objects it stores.
   The sizes stay so that the rows remain comparable with that baseline. *)
let params () =
  { Params.default with Params.region_size = 1 lsl 17; log_size = 1 lsl 20 }

(* The GC settings the process started with. A row's window allocates
   hundreds of MB, so it spans minor collections, and [Gc.allocated_bytes]
   over it moves with where they fall: with the minor heap's size and the
   major GC's pacing, both of which earlier experiments in the same
   process change ([Cluster.create] never shrinks the minor heap). Each
   row therefore starts from these settings after a full major
   collection, and runs at the minor heap [Cluster.create] gives its
   fleet: many small collections, each misplacing little, so a row reads
   the same in any process (DESIGN.md §6). *)
let initial_gc = Gc.get ()

let run_size ~machines ~workers_per_machine ~subscribers ~duration =
  Gc.set initial_gc;
  Gc.full_major ();
  let c = Cluster.create ~params:(params ()) ~machines () in
  let regions_per_table = max 2 machines in
  let events0 = Engine.events_processed c.Cluster.engine and sim0 = Cluster.now c in
  let t = Tatp.create c ~subscribers ~regions_per_table in
  let build_events = Engine.events_processed c.Cluster.engine - events0 in
  let build_sim = Time.sub (Cluster.now c) sim0 in
  Tatp.load c t;
  let host0 = Unix.gettimeofday () in
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let stats =
    Driver.run c ~workers:workers_per_machine ~warmup:(Time.ms 2) ~duration ~op:(Tatp.op t)
  in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let host1 = Unix.gettimeofday () in
  (* events still queued at the window's end: live timers and in-flight
     work, plus any event that nothing will ever need *)
  let pending_end = Engine.pending c.Cluster.engine in
  (* simulated NVRAM written by the end of the window: region pages
     resident on every machine *)
  let nvram_bytes =
    Array.fold_left
      (fun acc (st : State.t) -> acc + Farm_nvram.Bank.resident_bytes st.State.nv.State.bank)
      0 c.Cluster.machines
  in
  (* The heap the fleet holds at the end of the measured window: live
     words after a full major collection, with the cluster still live
     (it is read below). *)
  Gc.full_major ();
  let live_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576. in
  let ops = Stats.Counter.get stats.Driver.ops in
  let host_s = host1 -. host0 in
  let sim_tx_per_s = float_of_int ops /. (Time.to_us_float duration /. 1e6) in
  let host_tx_per_s = float_of_int ops /. host_s in
  let bytes_per_op = alloc_bytes /. float_of_int (max 1 ops) in
  let workers_total = machines * workers_per_machine in
  Fmt.pr
    "%2d machines %5d workers: %7d ops in %dms sim (%.2fs host) = %.1f Mtx/s sim, \
     %.0f tx/s host, %.0f bytes/op, %.1f MB live, %.1f MB NVRAM@."
    machines workers_total ops (Bench_util.ms_of duration) host_s (sim_tx_per_s /. 1e6)
    host_tx_per_s bytes_per_op live_mb
    (float_of_int nvram_bytes /. 1048576.);
  let open Bench_util in
  Json.Obj
    [
      ("machines", int machines);
      ("workers_total", int workers_total);
      ("sim_ms", int (ms_of duration));  (* measured window, simulated time *)
      ("host_s", fixed 2 host_s);
      ("ops", int ops);  (* successful TATP operations *)
      ("committed", int (Cluster.total_committed c));  (* through the commit protocol *)
      ("sim_tx_per_s", fixed 0 sim_tx_per_s);
      ("host_tx_per_s", fixed 0 host_tx_per_s);  (* the engine's speed *)
      ("bytes_per_op", fixed 0 bytes_per_op);  (* host heap bytes per TATP op *)
      ("live_mb", fixed 1 live_mb);  (* host heap live at the window's end *)
      ("nvram_bytes", int nvram_bytes);  (* simulated NVRAM resident then *)
      (* set-up's cost inside [Tatp.create]: regions plus the table build *)
      ("build_events", int build_events);
      ("build_sim_ms", int (ms_of build_sim));
      ("pending_end", int pending_end);
    ]

(* {1 Commit-path micro measurement}

   Bytes of host heap allocated per committed read-write transaction,
   measured over a batch of two-object cross-machine update transactions on
   a 3-machine cluster — the narrow number the allocation budget in
   DESIGN.md governs. *)

let micro_commit_bytes () =
  Farm_obs.Allocmeter.with_quiet_heap (fun () ->
      let c = Cluster.create ~machines:3 () in
      let r1 = Cluster.alloc_region_exn c in
      let r2 = Cluster.alloc_region_exn c in
      let a, b =
        Cluster.run_on c ~machine:0 (fun st ->
            match
              Api.run st ~thread:0 (fun tx ->
                  let a = Txn.alloc tx ~size:16 ~region:r1.Wire.rid () in
                  let b = Txn.alloc tx ~size:16 ~region:r2.Wire.rid () in
                  (a, b))
            with
            | Ok v -> v
            | Error e ->
                Fmt.failwith "engine_scaling: setup tx failed: %a" Txn.pp_abort e)
      in
      let payload = Bytes.make 16 'x' in
      let batch st n =
        for _ = 1 to n do
          match
            Api.run st ~thread:0 (fun tx ->
                ignore (Txn.read tx a ~len:16);
                Txn.write tx a payload;
                Txn.write tx b payload)
          with
          | Ok () -> ()
          | Error e ->
              Fmt.failwith "engine_scaling: micro tx failed: %a" Txn.pp_abort e
        done
      in
      let n = 512 in
      (* One engine pump per attempt: warm-up batch, then the measured
         batch inside a single GC-quiet window.  The measurement runs
         entirely inside [run_on] so background machinery (leases, log
         flushers) is charged to the transactions it serves, exactly as
         at scale. *)
      let rec attempt tries =
        let bytes_per_tx =
          Cluster.run_on c ~machine:0 (fun st ->
              batch st 32;
              let (), bytes, clean =
                Farm_obs.Allocmeter.measure (fun () -> batch st n)
              in
              if clean then Some (bytes /. float_of_int n) else None)
        in
        match bytes_per_tx with
        | Some v -> v
        | None when tries > 0 -> attempt (tries - 1)
        | None -> Fmt.failwith "engine_scaling: no GC-quiet micro window"
      in
      attempt 3)

(* {1 JSON} *)

(* The pre-refactor commit-path number, measured on the allocating pipeline
   (fresh hashtables, cons-lists and polymorphic sorts per commit) at the
   seed of this PR; kept as a constant so the ratio in the JSON and the CI
   budget check both refer to a fixed anchor. *)
let pre_refactor_micro_bytes_per_tx = 36_679.

let json_report ~smoke ~micro_bytes rows =
  let fixed = Bench_util.fixed in
  Json.Obj
    [
      ("bench", Json.Str "engine_scaling");
      ("smoke", Json.Bool smoke);
      ( "micro_commit",
        Json.Obj
          [
            ("pre_refactor_bytes_per_tx", fixed 0 pre_refactor_micro_bytes_per_tx);
            ("bytes_per_tx", fixed 0 micro_bytes);
            ("reduction_x", fixed 1 (pre_refactor_micro_bytes_per_tx /. micro_bytes));
          ] );
      ("rows", Json.Arr rows);
    ]

(* {1 Baseline regression gate (CI)}

   Simulated throughput, operation counts, the simulated NVRAM resident,
   the events and simulated time [Tatp.create] takes and the events still
   queued at the window's end are pure functions of the seed, so they must
   match the baseline row of the same cluster size exactly. The last one
   fails a change that leaves dead events (a timer that a reply has made
   moot) queued again. Host-heap bytes depend on the host's OCaml
   runtime, so they get a 1.2x ceiling, and the live heap a 1.1x one. The
   commit micro row is keyed by its fixed pre-refactor anchor. *)

let gate =
  [
    {
      Gate.rows = "rows";
      key = "machines";
      bounds =
        [
          ("sim_tx_per_s", Gate.Exact);
          ("ops", Gate.Exact);
          ("committed", Gate.Exact);
          ("build_events", Gate.Exact);
          ("build_sim_ms", Gate.Exact);
          ("nvram_bytes", Gate.Exact);
          ("pending_end", Gate.Exact);
          ("bytes_per_op", Gate.Ceiling 1.2);
          ("live_mb", Gate.Ceiling 1.1);
        ];
    };
    {
      Gate.rows = "micro_commit";
      key = "pre_refactor_bytes_per_tx";
      bounds = [ ("bytes_per_tx", Gate.Ceiling 1.2) ];
    };
  ]

(* {1 Entry point} *)

let run ?(smoke = false) ?check_baseline () =
  Bench_util.header "engine scaling — TATP at paper scale"
    "90 machines, Fig 7/9/13 cluster size; tracks engine speed and bytes/op";
  let sizes =
    (* (machines, workers_per_machine, subscribers, duration); --smoke runs
       the first three, so CI's rows have exact baseline rows. The
       30-machine row is the smallest whose live heap is large enough for
       the 1.1x [live_mb] ceiling to catch a memory regression. *)
    [
      (3, 12, 2_000, Time.ms 60);
      (9, 12, 4_000, Time.ms 40);
      (30, 12, 6_000, Time.ms 25);
      (60, 12, 8_000, Time.ms 20);
      (90, 12, 10_000, Time.ms 20);
    ]
  in
  let sizes = if smoke then List.filteri (fun i _ -> i < 3) sizes else sizes in
  let micro_bytes = micro_commit_bytes () in
  Fmt.pr "commit micro: %.0f bytes/tx (pre-refactor %.0f, %.1fx reduction)@."
    micro_bytes pre_refactor_micro_bytes_per_tx
    (pre_refactor_micro_bytes_per_tx /. micro_bytes);
  let rows =
    List.map
      (fun (machines, workers_per_machine, subscribers, duration) ->
        run_size ~machines ~workers_per_machine ~subscribers ~duration)
      sizes
  in
  let report = json_report ~smoke ~micro_bytes rows in
  match check_baseline with
  | Some file ->
      Fmt.pr "@.checking against baseline %s:@." file;
      if not (Gate.report (Gate.check ~file gate report)) then begin
        Fmt.epr "engine_scaling: regression against %s@." file;
        exit 1
      end
  | None ->
      Bench_util.write_json "BENCH_engine_scaling.json" report
