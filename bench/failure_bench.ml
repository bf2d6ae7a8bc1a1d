open Farm_sim
open Farm_core
open Farm_workloads
open Farm_harness
module Obs = Farm_obs.Obs

(* The failure-timeline harness behind Figures 9, 10, 11, 13, 14 and 15:
   run a workload at full load, kill one or more machines at a fixed
   instant, and report the recovery milestones, the 1 ms throughput
   timeline around the failure, and the progress of background data
   recovery. *)

type workload = Wl_tatp of int (* subscribers *) | Wl_tpcc of Tpcc.scale

type victim = Kill_primary_of_first_region | Kill_cm | Kill_domain of int

type spec = {
  label : string;
  paper : string;
  machines : int;
  domains : int -> int;
  params : Params.t;
  workload : workload;
  workers : int;
  kill_at : Time.t;  (* relative to measurement start *)
  measure_for : Time.t;
  victim : victim;
  seed : int;
  data_rec_limit : Time.t;  (* how long to wait for full data recovery *)
  kill_burst : int;
      (* extra unmeasured workers per machine, spawned 2 ms before the kill
         and stopped 10 ms after it: they raise the in-flight transaction
         population at the kill instant (the paper's runs carry ~7 500
         in-flight transactions into recovery, and that drain is where its
         recovery-time tail comes from) without polluting the throughput
         series the recovery analysis reads *)
  quiet : bool;
  json : string option;
      (* write the sampled cluster timeline (1 ms commits/aborts/one-sided
         ops/log occupancy/CPU series) plus the kill instant and the
         recovery-to-90% analysis to this file *)
}

let default_spec =
  {
    label = "";
    paper = "";
    machines = 8;
    domains = (fun m -> m);
    params = { Params.default with Params.lease_duration = Time.ms 5 };
    workload = Wl_tatp 2_000;
    workers = 6;
    kill_at = Time.ms 60;
    measure_for = Time.ms 300;
    victim = Kill_primary_of_first_region;
    seed = 42;
    data_rec_limit = Time.s 2;
    kill_burst = 0;
    quiet = false;
    json = None;
  }

type outcome = {
  recovery_80 : Time.t option;  (* time from kill to 80% of pre-kill rate *)
  milestones : (Obs.kind * Time.t) list;  (* the [reported] ones, relative to kill *)
  regions_recovered : int;
  data_rec_done : Time.t option;
  stats : Driver.stats;
  cluster : Cluster.t;
}

(* {1 Timeline artifact}

   The sampled cluster timeline around the failure, written as JSON for the
   figure artifacts (BENCH_fig9_timeline.json etc). Everything is computed
   from integers sampled at engine instants, so a given seed produces a
   byte-identical file on every run and for any --jobs value. *)

(* Mean pre-kill commit rate over the 20 ms before the kill, and the first
   sampling interval after the kill that regains 90% of it. All-integer
   arithmetic: [v >= 0.9 * pre_sum / pre_bins] as [v * 10 * pre_bins >=
   pre_sum * 9]. *)
let recovery_analysis rows ~kill_ns =
  let pre = List.filter (fun (t, _) -> t <= kill_ns && t > kill_ns - 20_000_000) rows in
  let pre_sum = List.fold_left (fun a (_, v) -> a + v) 0 pre in
  let pre_bins = List.length pre in
  let rec90 =
    if pre_sum = 0 then None
    else List.find_opt (fun (t, v) -> t > kill_ns && v * 10 * pre_bins >= pre_sum * 9) rows
  in
  (pre_sum, pre_bins, Option.map (fun (t, _) -> t - kill_ns) rec90)

let write_timeline_json file spec c ~kill_abs =
  let rows = Cluster.timeline_column c "commits" in
  let kill_ns = Time.to_ns kill_abs in
  let pre_sum, pre_bins, rec90 = recovery_analysis rows ~kill_ns in
  let open Bench_util in
  write_json file
    (Json.Obj
       [
         ("bench", Json.Str "failure_timeline");
         ("label", Json.Str spec.label);
         ("kill_ns", int kill_ns);
         ("pre_failure_commits", Json.Obj [ ("window_bins", int pre_bins); ("total", int pre_sum) ]);
         ("recovery_90_ns", match rec90 with Some t -> int t | None -> Json.Null);
         ("timeline", Json.of_string (Cluster.timeline_dump c));
       ]);
  rec90

(* The milestone kinds a run reports. *)
let reported =
  Obs.
    [
      K_ms_killed; K_ms_suspect; K_ms_probe; K_ms_zookeeper; K_ms_new_config;
      K_ms_config_commit; K_ms_all_active; K_ms_data_rec_start; K_ms_data_rec_done;
    ]

let run spec : outcome =
  let c = Cluster.create ~seed:spec.seed ~params:spec.params ~domains:spec.domains
      ~machines:spec.machines ()
  in
  let op =
    match spec.workload with
    | Wl_tatp subscribers ->
        let t = Tatp.create c ~subscribers ~regions_per_table:2 in
        Tatp.load c t;
        Tatp.op t
    | Wl_tpcc scale ->
        let t = Tpcc.create c ~scale () in
        Tpcc.load c t;
        Tpcc.op t
  in
  let start = Cluster.now c in
  (* the sampler's horizon caps its self-rescheduling, so a drained engine
     still quiesces and the data-recovery wait loop below terminates *)
  if spec.json <> None then
    Cluster.start_sampling c
      ~until:(Time.add (Time.add start spec.measure_for) spec.data_rec_limit);
  let kill_abs = Time.add start spec.kill_at in
  let victims = ref [] in
  Engine.schedule c.Cluster.engine ~at:kill_abs (fun () ->
      (match spec.victim with
      | Kill_primary_of_first_region ->
          (* the first data region (region 1 is a table region) *)
          let rec first_alive rid =
            if rid > 50 then None
            else
              match
                List.find_opt
                  (fun (m, (rep : State.replica)) ->
                    rep.State.role = State.Primary && (Cluster.machine c m).State.alive)
                  (Cluster.replicas_of c rid)
              with
              | Some (m, _) -> Some m
              | None -> first_alive (rid + 1)
          in
          (match first_alive 1 with
          | Some m when m <> Cluster.cm c -> victims := [ m ]
          | _ ->
              (* avoid the CM for the non-CM experiments *)
              victims := [ (Cluster.cm c + 1) mod spec.machines ])
      | Kill_cm -> victims := [ Cluster.cm c ]
      | Kill_domain d ->
          victims :=
            List.filter
              (fun m -> spec.domains m = d)
              (List.init spec.machines Fun.id));
      List.iter (fun m -> Cluster.kill c m) !victims);
  (* the in-flight burst: extra workers alive only across the kill window,
     so far more transactions are mid-commit when the victim dies *)
  if spec.kill_burst > 0 then begin
    let burst_stop = ref false in
    Engine.schedule c.Cluster.engine
      ~at:(Time.sub kill_abs (Time.ms 2))
      (fun () ->
        Array.iter
          (fun (st : State.t) ->
            if st.State.alive then
              for w = 0 to spec.kill_burst - 1 do
                let ctx =
                  {
                    Driver.st;
                    thread = w mod st.State.params.Params.threads_per_machine;
                    rng = Rng.split st.State.rng;
                    worker = 1000 + w;
                  }
                in
                Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
                    while not !burst_stop do
                      Proc.check_cancelled ();
                      ignore (op ctx);
                      Proc.sleep (Time.us 1)
                    done)
              done)
          c.Cluster.machines);
    Engine.schedule c.Cluster.engine
      ~at:(Time.add kill_abs (Time.ms 10))
      (fun () -> burst_stop := true)
  end;
  let stats =
    Driver.run c ~workers:spec.workers ~duration:spec.measure_for ~op
      ~machines:
        (List.init spec.machines Fun.id
        |> List.filter (fun m ->
               (* workers only on machines that will survive *)
               match spec.victim with
               | Kill_domain d -> spec.domains m <> d
               | Kill_cm -> m <> Cluster.cm c
               | Kill_primary_of_first_region -> true))
  in
  (* wait for background data recovery to finish *)
  let deadline = Time.add (Cluster.now c) spec.data_rec_limit in
  while
    Cluster.first_event c ~after:kill_abs Obs.K_ms_data_rec_done = None
    && Time.( < ) (Cluster.now c) deadline
    && Engine.pending c.Cluster.engine > 0
  do
    Cluster.run_for c ~d:(Time.ms 50)
  done;
  let milestones =
    List.filter_map
      (fun (r : Obs.record) ->
        let at = Time.ns r.r_at in
        if List.mem r.r_kind reported && Time.( >= ) at kill_abs then
          Some (r.r_kind, Time.sub at kill_abs)
        else None)
      (Obs.log_records c.Cluster.log)
  in
  let regions_recovered = List.length (Cluster.log_events c Obs.K_ms_region_recovered) in
  let data_rec_done =
    Option.map (fun at -> Time.sub at kill_abs)
      (Cluster.first_event c ~after:kill_abs Obs.K_ms_data_rec_done)
  in
  let recovery_80 = Driver.recovery_time stats ~failure_at:kill_abs ~fraction:0.8 in
  let o = { recovery_80; milestones; regions_recovered; data_rec_done; stats; cluster = c } in
  if not spec.quiet then begin
    Bench_util.header spec.label spec.paper;
    Fmt.pr "machines=%d workers/machine=%d killed=%a at t=%a@." spec.machines spec.workers
      Fmt.(list ~sep:(any ",") int)
      !victims Time.pp kill_abs;
    Fmt.pr "@.milestones after the failure:@.";
    List.iter
      (fun (kind, dt) -> Fmt.pr "  %-16s +%a@." (Obs.milestone_tag kind ~a:0) Time.pp dt)
      milestones;
    (match recovery_80 with
    | Some t -> Fmt.pr "@.time to regain 80%% of pre-failure throughput: %a@." Time.pp t
    | None -> Fmt.pr "@.throughput did not regain 80%% in the window@.");
    (match data_rec_done with
    | Some t ->
        Fmt.pr "full data re-replication of %d region replicas: %a@." regions_recovered
          Time.pp t
    | None -> Fmt.pr "data recovery still running at cutoff (paced; expected)@.");
    let bins = Cluster.throughput_series c ~until:(Cluster.now c) in
    let k = Bench_util.ms_of kill_abs in
    Bench_util.print_timeline ~from_ms:(max 0 (k - 30)) ~to_ms:(k + 120) ~bins
      ~label:"throughput around the failure" ();
    Bench_util.print_latency "tx latency" stats.Driver.latency
  end;
  (match spec.json with
  | Some file ->
      let rec90 = write_timeline_json file spec c ~kill_abs in
      if not spec.quiet then begin
        (match rec90 with
        | Some dt ->
            Fmt.pr "@.sampled timeline: commits/interval back to 90%% of pre-failure %a \
                    after the kill@."
              Time.pp (Time.ns dt)
        | None -> Fmt.pr "@.sampled timeline: 90%% of pre-failure rate not regained@.")
      end
  | None -> ());
  o
