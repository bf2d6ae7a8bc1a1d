open Farm_sim
open Farm_core
open Farm_workloads
module Obs = Farm_obs.Obs

(* The schedule explorer: run N random fault schedules of a workload,
   checking every run's history and final state. Each schedule runs a fresh
   cluster whose every source of randomness — machine rngs, workload op
   mix, the fault script itself — derives from one integer seed, so a
   failing run is reproduced bit-for-bit by [run_one] on that seed and its
   event trace is byte-identical.

   The workload is a conserving bank: workers transfer random amounts
   between cells, so the cell sum is invariant under any committed prefix;
   a side stream of B-tree inserts and deletes exercises structure
   modification under faults. Committed transactions are recorded and
   checked for strict serializability; after the schedule the cluster is
   healed, quiesced and probed (see {!Invariant}). *)

type opts = {
  machines : int;
  cells : int;
  workers : int;  (** workers per machine *)
  duration : Time.t;  (** workload + fault window per schedule *)
  protocol : Params.protocol;  (** commit protocol variant under test *)
  record : bool;  (** capture flight-recorder events (the default) *)
  perfetto : bool;  (** also capture a causal trace (off by default) *)
  gray : bool;  (** draw gray-failure schedules ({!Schedule.generate_gray}) *)
}

let default_opts =
  {
    machines = 6;
    cells = 16;
    workers = 2;
    duration = Time.ms 60;
    protocol = Params.Validate_at_commit;
    record = true;
    perfetto = false;
    gray = false;
  }

type outcome = {
  seed : int;
  committed : int;
  violations : string list;  (** empty = the run passed every check *)
  trace : string list;  (** merged fault / milestone event trace *)
  recorder : string list;  (** flight-recorder dump (when recording) *)
  perfetto_json : string option;  (** rendered causal trace (when [perfetto]) *)
  abort_causes : (string * int) list;  (** cluster-wide abort breakdown *)
  blame : (string * int) list;  (** latency-blame ns totals (when recording) *)
}

let ok o = o.violations = []

type report = {
  base_seed : int;
  schedules : int;
  total_committed : int;
  failures : outcome list;
}

(* Simulation-speed parameters, as the cluster test-suite uses. *)
let params =
  { Params.default with Params.lease_duration = Time.ms 5; region_size = 1 lsl 18 }

let initial_balance = 100

let read_int tx addr = Int64.to_int (Bytes.get_int64_le (Txn.read tx addr ~len:8) 0)

let write_int tx addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Txn.write tx addr b

(* One committed-or-aborted bank transfer; the body returns the transaction
   so its footprint can be recorded in the history after commit. *)
let transfer st ~rng ~hist ~addrs =
  let n = Array.length addrs in
  let a = Rng.int rng n and b = Rng.int rng n in
  let ro = Rng.int rng 100 < 25 in
  match
    Api.run st ~thread:0 (fun tx ->
        let va = read_int tx addrs.(a) in
        let vb = read_int tx addrs.(b) in
        if not ro then
          if a <> b then begin
            let amt = 1 + Rng.int rng 5 in
            write_int tx addrs.(a) (va - amt);
            write_int tx addrs.(b) (vb + amt)
          end
          else write_int tx addrs.(a) va;
        tx)
  with
  | Ok tx -> ignore (History.record hist tx)
  | Error _ -> ()

let spawn_workers (c : Cluster.t) ~opts ~stop ~hist ~addrs ~tree =
  Array.iter
    (fun (st : State.t) ->
      if st.State.alive then
        for _w = 1 to opts.workers do
          Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
              let rng = Rng.split st.State.rng in
              (* per-machine handle: node caches must not be shared *)
              let tree = { tree with Farm_kv.Btree.cache = Int_tbl.create 64 } in
              while not !stop do
                if Rng.int rng 100 < 20 then
                  ignore
                    (Api.run_retry ~attempts:3 st ~thread:0 (fun tx ->
                         let k = Rng.int rng 200 in
                         if Rng.bool rng then Farm_kv.Btree.insert tx tree k (Rng.int rng 1000)
                         else ignore (Farm_kv.Btree.delete tx tree k)))
                else transfer st ~rng ~hist ~addrs;
                Proc.sleep (Time.us (50 + Rng.int rng 200))
              done)
        done)
    c.Cluster.machines

(* The event trace: the cluster log rendered in time order, milestones
   first at equal timestamps and everything else (nemesis actions, network
   drops) in emission order. Deterministic in the seed. *)
let render_trace (c : Cluster.t) (sched : Schedule.t) =
  let faults = Array.of_list sched.Schedule.events in
  let line (r : Obs.record) =
    match r.Obs.r_kind with
    | Obs.K_ud_drop -> Fmt.str "net: drop %d->%d" r.r_machine r.r_a
    | Obs.K_rc_retransmit -> Fmt.str "net: drop %d->%d (retransmit)" r.r_machine r.r_a
    | Obs.K_fault -> Fmt.str "nemesis: %a" Schedule.pp_fault faults.(r.r_a).Schedule.fault
    | Obs.K_flap_stall ->
        Fmt.str "nemesis: lease-flap-stall m%d %a" r.r_a Time.pp (Time.ns r.r_b)
    | k -> Fmt.str "milestone m%d %s" r.r_machine (Obs.milestone_tag k ~a:r.r_a)
  in
  let key (r : Obs.record) = (r.r_at, not (Obs.is_milestone r.r_kind)) in
  List.stable_sort (fun a b -> compare (key a) (key b)) (Obs.log_records c.Cluster.log)
  |> List.map (fun (r : Obs.record) -> Fmt.str "%a %s" Time.pp (Time.ns r.r_at) (line r))

(* Run one schedule. Every check failure becomes a violation string; the
   run passes iff none accumulate. [probe] is an extra caller-supplied
   invariant probe run against the healed cluster (tests use it to inject
   violations and exercise the failing-outcome path). *)
let run_one ?(opts = default_opts) ?probe seed =
  let params = { params with Params.protocol = opts.protocol } in
  let c = Cluster.create ~seed ~params ~machines:opts.machines () in
  Cluster.set_recording c opts.record;
  (* blame rides the recording switch: determinism-inert, so outcomes are
     identical either way, and a failing schedule's dump can then say where
     its transactions spent their time *)
  Cluster.set_blame c opts.record;
  Cluster.set_tracing c opts.perfetto;
  (* setup: bank cells in one region, a B-tree in another *)
  let r = Cluster.alloc_region_exn c in
  let addrs =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              Array.init opts.cells (fun _ ->
                  let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                  write_int tx a initial_balance;
                  a))
        with
        | Ok addrs -> addrs
        | Error e -> Fmt.failwith "explorer setup: %a" Txn.pp_abort e)
  in
  let tree =
    let tr = Cluster.alloc_region_exn c in
    Cluster.run_on c ~machine:0 (fun st ->
        Farm_kv.Btree.create st ~thread:0 ~regions:[| tr.Wire.rid |] ())
  in
  let hist = History.create () in
  let stop = ref false in
  spawn_workers c ~opts ~stop ~hist ~addrs ~tree;
  (* draw and run the fault script *)
  let start = Cluster.now c in
  let sched =
    (if opts.gray then Schedule.generate_gray else Schedule.generate)
      ~seed ~machines:opts.machines ~duration:opts.duration
      ~lease:params.Params.lease_duration
  in
  Nemesis.run c ~start sched;
  (* a power failure cancelled every worker along with its machine; resume
     load on the rebooted cluster for the rest of the window *)
  if
    List.exists
      (fun (e : Schedule.event) -> e.Schedule.fault = Schedule.Power_cycle)
      sched.Schedule.events
  then spawn_workers c ~opts ~stop ~hist ~addrs ~tree;
  Cluster.run_until c ~at:(Time.add start opts.duration);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 5);
  (* heal, settle, and let lazy truncation converge the backups *)
  Cluster.heal c;
  let settled = Cluster.quiesce c in
  Cluster.run_for c ~d:(Time.ms 60);
  let violations = ref [] in
  let violate fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  if not settled then violate "liveness: cluster failed to quiesce";
  (match History.check hist with
  | History.Serializable -> ()
  | v -> violate "history: %a" History.pp_verdict v);
  List.iter (fun v -> violate "%a" Invariant.pp v) (Invariant.check c);
  (match probe with
  | Some p -> List.iter (fun s -> violate "%s" s) (p ~seed c)
  | None -> ());
  (* semantic probes need a live member to run transactions from *)
  let member =
    match Cluster.current_config c with
    | None -> None
    | Some cfg ->
        List.find_opt (fun m -> (Cluster.machine c m).State.alive) cfg.Config.members
  in
  (match member with
  | None -> violate "liveness: no alive member to probe from"
  | Some m ->
      (match
         Cluster.run_on c ~machine:m (fun st ->
             Api.run_retry st ~thread:0 (fun tx ->
                 Array.fold_left (fun acc a -> acc + read_int tx a) 0 addrs))
       with
      | Ok total ->
          let expect = opts.cells * initial_balance in
          if total <> expect then violate "conservation: cell sum %d, expected %d" total expect
      | Error e -> violate "conservation: probe aborted: %a" Txn.pp_abort e);
      let tree = { tree with Farm_kv.Btree.cache = Int_tbl.create 16 } in
      match
        Cluster.run_on c ~machine:m (fun st ->
            Api.run_retry st ~thread:0 (fun tx -> Farm_kv.Btree.check_invariants tx tree))
      with
      | Ok ([], _keys) -> ()
      | Ok (problems, _) -> List.iter (fun p -> violate "btree: %s" p) problems
      | Error e -> violate "btree: probe aborted: %a" Txn.pp_abort e);
  {
    seed;
    committed = History.size hist;
    violations = List.rev !violations;
    trace = render_trace c sched;
    recorder = (if opts.record then Cluster.flight_dump c else []);
    (* rendered inside run_one so [sweep ~jobs] merges finished strings and
       the artifact stays byte-identical for any job count *)
    perfetto_json = (if opts.perfetto then Some (Cluster.trace_dump c) else None);
    abort_causes = Cluster.abort_breakdown c;
    blame = (if opts.record then Cluster.blame_totals c else []);
  }

let pp_outcome ppf o =
  if ok o then Fmt.pf ppf "seed %d: ok (%d committed)" o.seed o.committed
  else begin
    Fmt.pf ppf "seed %d: FAILED (%d committed)@.%a@.--- trace ---@.%a" o.seed o.committed
      Fmt.(list ~sep:(any "@.") (fmt "  violation: %s"))
      o.violations
      Fmt.(list ~sep:(any "@.") (fmt "  %s"))
      o.trace;
    if o.blame <> [] then
      Fmt.pf ppf "@.--- latency blame (us) ---@.%a"
        Fmt.(
          list ~sep:(any "@.") (fun ppf (name, ns) ->
              pf ppf "  %-12s %d.%03d" name (ns / 1000) (abs ns mod 1000)))
        o.blame;
    if o.recorder <> [] then
      Fmt.pf ppf "@.--- flight recorder (last %d protocol events) ---@.%a"
        (List.length o.recorder)
        Fmt.(list ~sep:(any "@.") (fmt "  %s"))
        o.recorder
  end

(* Explore [schedules] runs; per-run seeds derive from [base_seed] so the
   whole exploration is one deterministic function of it. A failing run
   prints its own seed for [run_one] replay.

   [jobs] farms the seeds out to worker domains ({!Domain_pool}). Each
   schedule is a closed world — fresh cluster, fresh rngs, fresh obs sinks,
   all derived from its seed — so parallel workers share nothing; outcomes
   are merged back in seed order by the pool's in-order [on_result] stream,
   which makes the report (totals, failure list, every rendered trace and
   flight-recorder dump, and everything [on_outcome] prints) byte-identical
   regardless of job count. A worker exception is re-raised in seed order,
   exactly where the sequential loop would have raised it. *)
let sweep ?(opts = default_opts) ?probe ?on_outcome ?(jobs = 1) ~base_seed ~schedules () =
  let derive = Rng.create base_seed in
  let seeds = Array.init schedules (fun _ -> Rng.bits derive) in
  let failures = ref [] in
  let total = ref 0 in
  let results =
    Domain_pool.map ~jobs
      ~on_result:(fun i r ->
        match r with
        | Error _ -> ()
        | Ok o ->
            total := !total + o.committed;
            if not (ok o) then failures := o :: !failures;
            (match on_outcome with Some f -> f ~index:(i + 1) o | None -> ()))
      (fun seed -> run_one ~opts ?probe seed)
      seeds
  in
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  { base_seed; schedules; total_committed = !total; failures = List.rev !failures }
