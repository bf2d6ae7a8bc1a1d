open Farm_sim
open Farm_core

(** Closed-loop load generation and measurement (the methodology of §6.3:
    each machine both stores data and runs benchmark workers; load varies
    with the number of workers per machine). *)

type worker_ctx = {
  st : State.t;
  thread : int;  (** coordinator thread id for this worker *)
  rng : Rng.t;
  worker : int;
}

type stats = {
  ops : Stats.Counter.t;  (** successful operations *)
  failures : Stats.Counter.t;
  latency : Stats.Hist.t;  (** successful-op latency, ns *)
  series : Stats.Series.t;  (** successful ops per 1 ms bin *)
}

val create_stats : unit -> stats

val run :
  ?machines:int list ->
  ?warmup:Time.t ->
  Cluster.t ->
  workers:int ->
  duration:Time.t ->
  op:(worker_ctx -> bool) ->
  stats
(** Run [op] in a closed loop on [workers] workers per machine for
    [duration] after [warmup]; [op] returns whether the operation
    succeeded. Drives the engine; returns aggregate statistics. *)

val throughput_per_us : stats -> duration:Time.t -> float

val recovery_time : stats -> failure_at:Time.t -> fraction:float -> Time.t option
(** Time from the failure until aggregate throughput regains [fraction] of
    its pre-failure 30 ms average (the Figure 12 methodology). *)
