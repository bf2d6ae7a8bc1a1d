open Farm_sim
open Farm_core

(* Closed-loop load generation and measurement for the evaluation figures.

   Each machine both stores data and runs benchmark workers (FaRM's
   symmetric model, §6.2). A worker is a green process pinned to a
   coordinator thread id; load is varied by the number of workers per
   machine, exactly like the paper varies threads x concurrency. *)

type worker_ctx = {
  st : State.t;
  thread : int;
  rng : Rng.t;
  worker : int;
}

type stats = {
  ops : Stats.Counter.t;
  failures : Stats.Counter.t;
  latency : Stats.Hist.t;  (* successful-op latency, ns *)
  series : Stats.Series.t;  (* successful ops per 1 ms bin (all time) *)
}

let create_stats () =
  {
    ops = Stats.Counter.create ();
    failures = Stats.Counter.create ();
    latency = Stats.Hist.create ();
    series = Stats.Series.create ~bin:(Time.ms 1);
  }

(* Run [op] in a closed loop on [workers] workers per machine for
   [duration] (after [warmup], during which nothing is recorded). [op]
   returns whether the operation succeeded. Returns aggregate stats. *)
let run ?machines ?(warmup = Time.zero) cluster ~workers ~duration ~op =
  let stats = create_stats () in
  let stop = ref false in
  let engine = cluster.Cluster.engine in
  let measure_from = Time.add (Engine.now engine) warmup in
  let targets =
    match machines with
    | Some l -> l
    | None -> List.init (Cluster.n_machines cluster) Fun.id
  in
  List.iter
    (fun m ->
      let st = Cluster.machine cluster m in
      for w = 0 to workers - 1 do
        let ctx =
          {
            st;
            thread = w mod st.State.params.Params.threads_per_machine;
            rng = Rng.split st.State.rng;
            worker = w;
          }
        in
        Proc.spawn ~ctx:st.State.ctx engine (fun () ->
            while not !stop do
              Proc.check_cancelled ();
              let t0 = Proc.now () in
              let ok = op ctx in
              let t1 = Proc.now () in
              if Time.( >= ) t1 measure_from then begin
                if ok then begin
                  Stats.Counter.incr stats.ops;
                  Stats.Hist.record stats.latency (Time.to_ns (Time.sub t1 t0));
                  Stats.Series.add stats.series ~at:t1 1
                end
                else Stats.Counter.incr stats.failures
              end;
              (* stay cooperative even if the op completed locally *)
              if Time.( <= ) (Time.sub t1 t0) Time.zero then Proc.sleep (Time.us 1)
            done)
      done)
    targets;
  Engine.run ~until:(Time.add measure_from duration) engine;
  stop := true;
  Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 2)) engine;
  stats

(* Derived measurements *)

let throughput_per_us stats ~duration =
  float_of_int (Stats.Counter.get stats.ops) /. Time.to_us_float duration

(* Time from the failure until aggregate throughput is back to [fraction]
   of its pre-failure average, computed over 1 ms bins (§6.4, Figure 12
   methodology). *)
let recovery_time stats ~failure_at ~fraction =
  let bin = Time.to_ns (Stats.Series.bin stats.series) in
  let fail_bin = Time.to_ns failure_at / bin in
  let pre_from = max 0 (fail_bin - 30) in
  let pre_bins = max 1 (fail_bin - pre_from) in
  let pre_total = ref 0 in
  for i = pre_from to fail_bin - 1 do
    pre_total := !pre_total + Stats.Series.get stats.series i
  done;
  let target =
    int_of_float (fraction *. float_of_int !pre_total /. float_of_int pre_bins)
  in
  let rec find i limit =
    if i > limit then None
    else if Stats.Series.get stats.series i >= target then
      Some (Time.ns ((i * bin) - Time.to_ns failure_at))
    else find (i + 1) limit
  in
  find (fail_bin + 1) (fail_bin + 100_000)
