open Farm_sim
open Farm_core

(* Open-loop load generation: requests arrive on their own schedule
   (an {!Arrivals} stream), queue in a bounded per-machine admission
   queue, and are served by a fixed worker pool. Unlike the closed loop
   ({!Driver}), overload does not self-clock — arrivals keep coming, so
   saturation shows up as queueing delay (sojourn = completion - submit)
   and, once the queue hits its cap, as shed load. This is the only load
   model under which "slow but alive" faults surface as latency: a closed
   loop just slows its own request stream down and hides the damage.

   Determinism: every machine's arrival stream is pre-rendered from a
   split of the machine rng, injectors and workers are ordinary green
   processes on the deterministic engine, and shedding is a pure function
   of queue occupancy — equal seeds yield byte-identical stats. *)

type stats = {
  submitted : Stats.Counter.t;  (* admitted to a queue *)
  shed : Stats.Counter.t;  (* arrived to a full queue, dropped *)
  completed : Stats.Counter.t;  (* op ran and succeeded *)
  failed : Stats.Counter.t;  (* op ran and reported failure *)
  sojourn : Stats.Hist.t;  (* submit -> completion, ns: queueing + service *)
  service : Stats.Hist.t;  (* op start -> completion, ns *)
  series : Stats.Series.t;  (* completions per 1 ms bin *)
}

let create_stats () =
  {
    submitted = Stats.Counter.create ();
    shed = Stats.Counter.create ();
    completed = Stats.Counter.create ();
    failed = Stats.Counter.create ();
    sojourn = Stats.Hist.create ();
    service = Stats.Hist.create ();
    series = Stats.Series.create ~bin:(Time.ms 1);
  }

type t = {
  cluster : Cluster.t;
  stats : stats;
  queues : (int * Time.t Mailbox.t) list;  (* machine id, pending submits *)
  queue_cap : int;
  mutable stopped : bool;  (* no further arrivals; workers drain and exit *)
}

let stats t = t.stats

(* An asymmetric partition can get a slow-but-alive machine evicted
   (precise membership: the suspecting side wins the reconfiguration
   race). The zombie keeps its queue — in a real deployment its clients
   fail over — so "queues drain after heal" is only a meaningful invariant
   for machines still in the configuration: [members_only] restricts the
   listing to them. *)
let queue_depths ?(members_only = false) t =
  let is_member =
    if not members_only then fun _ -> true
    else
      match Cluster.current_config t.cluster with
      | Some cfg -> fun m -> List.mem m cfg.Config.members
      | None -> fun _ -> true
  in
  List.filter_map
    (fun (m, q) ->
      if is_member m then Some (Printf.sprintf "m%d" m, Mailbox.length q) else None)
    t.queues

(* Requests admitted but never served: queued or mid-op on a machine that
   died or was evicted. *)
let stranded t =
  Stats.Counter.get t.stats.submitted
  - Stats.Counter.get t.stats.completed
  - Stats.Counter.get t.stats.failed

let stop t = t.stopped <- true

(* Worker poll interval while its queue is empty. Polling (rather than a
   sentinel protocol through the mailbox) keeps shutdown trivial and is
   deterministic on the simulated clock. *)
let idle_poll = Time.us 20

let start ?(queue_cap = 1024) ?(workers = 2) (c : Cluster.t) ~shape ~rate ~duration ~op =
  if queue_cap < 1 then invalid_arg "Openloop.start: queue_cap must be positive";
  let engine = c.Cluster.engine in
  let n_machines = Cluster.n_machines c in
  let stats = create_stats () in
  let t0 = Engine.now engine in
  let queues =
    List.map
      (fun m ->
        let st = Cluster.machine c m in
        let q : Time.t Mailbox.t = Mailbox.create () in
        (* expose queue occupancy to the 1 ms timeline sampler, if the
           sampler has not started yet *)
        let tl = Farm_obs.Obs.timeline st.State.obs in
        if
          (not (Farm_obs.Timeline.running tl))
          && not (List.mem "queue_depth" (Farm_obs.Timeline.series_names tl))
        then
          Farm_obs.Timeline.add_series tl ~name:"queue_depth"
            ~kind:Farm_obs.Timeline.Level (fun () -> Mailbox.length q);
        (m, q))
      (List.init n_machines Fun.id)
  in
  let t =
    { cluster = c; stats; queues; queue_cap; stopped = false }
  in
  List.iter
    (fun (m, q) ->
      let st = Cluster.machine c m in
      (* this machine's slice of the offered load, pre-rendered *)
      let rng = Rng.split st.State.rng in
      let arrivals =
        Arrivals.generate shape ~rng ~rate:(rate /. float_of_int n_machines) ~duration
      in
      (* injector: walks the stream on the engine clock; dies with the
         machine (its clients fail with it) *)
      Proc.spawn ~ctx:st.State.ctx engine (fun () ->
          Array.iter
            (fun at ->
              Proc.sleep_until (Time.add t0 at);
              if not t.stopped then begin
                if Mailbox.length q >= t.queue_cap then Stats.Counter.incr stats.shed
                else begin
                  Stats.Counter.incr stats.submitted;
                  Mailbox.send q (Proc.now ())
                end
              end)
            arrivals);
      (* the serving pool: fixed concurrency per machine *)
      for w = 0 to workers - 1 do
        let ctx =
          {
            Driver.st;
            thread = w mod st.State.params.Params.threads_per_machine;
            rng = Rng.split st.State.rng;
            worker = w;
          }
        in
        Proc.spawn ~ctx:st.State.ctx engine (fun () ->
            let continue = ref true in
            while !continue do
              Proc.check_cancelled ();
              match Mailbox.recv_opt q with
              | Some submit ->
                  let s0 = Proc.now () in
                  (* admission queueing: submit -> service start. The span
                     does not exist yet, so the wait is recorded straight
                     into the serving machine's blame accounting. *)
                  if Farm_obs.Obs.blame_enabled st.State.obs then
                    Farm_obs.Obs.record_blame st.State.obs Farm_obs.Obs.B_admission
                      (Time.to_ns (Time.sub s0 submit));
                  let ok = op ctx in
                  let s1 = Proc.now () in
                  if ok then begin
                    Stats.Counter.incr stats.completed;
                    Stats.Hist.record stats.sojourn (Time.to_ns (Time.sub s1 submit));
                    Stats.Hist.record stats.service (Time.to_ns (Time.sub s1 s0));
                    Stats.Series.add stats.series ~at:s1 1
                  end
                  else Stats.Counter.incr stats.failed;
                  (* stay cooperative even if the op completed locally *)
                  if Time.( <= ) (Time.sub s1 s0) Time.zero then Proc.sleep (Time.us 1)
              | None ->
                  if t.stopped then continue := false else Proc.sleep idle_poll
            done)
      done)
    queues;
  t
