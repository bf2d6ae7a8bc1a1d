open Farm_sim
open Farm_core

(** Open-loop load generation through a bounded admission queue.

    Requests arrive on an {!Arrivals} schedule regardless of service
    progress; a fixed per-machine worker pool serves them FIFO. Overload
    therefore surfaces as queueing delay ([sojourn] = submit to
    completion) and, once a queue reaches its cap, as shed load — not as
    the silent self-clocking of the closed loop ({!Driver}), which is what
    lets slow-but-alive faults show up in tail latency. Deterministic:
    equal seeds yield byte-identical statistics. *)

type stats = {
  submitted : Stats.Counter.t;  (** admitted to a queue *)
  shed : Stats.Counter.t;  (** arrived to a full queue, dropped *)
  completed : Stats.Counter.t;
  failed : Stats.Counter.t;
  sojourn : Stats.Hist.t;  (** submit -> completion (ns): queueing + service *)
  service : Stats.Hist.t;  (** op start -> completion (ns) *)
  series : Stats.Series.t;  (** completions per 1 ms bin *)
}

type t

val stats : t -> stats

val queue_depths : ?members_only:bool -> t -> (string * int) list
(** Current per-machine admission-queue depths, as [("m<id>", depth)] —
    the input to {!Farm_fault.Probes.queues_drained}. With
    [~members_only:true] (default false), machines outside the current
    configuration are omitted: an asymmetric partition can get a
    slow-but-alive machine evicted, and the zombie's queue never drains —
    in a real deployment its clients fail over. Use {!stranded} to account
    for that load. *)

val stranded : t -> int
(** Requests admitted but never served — queued or mid-operation on a
    machine that died or was evicted ([submitted - completed - failed]).
    Meaningful once load has stopped and the cluster has settled. *)

val start :
  ?queue_cap:int ->
  ?workers:int ->
  Cluster.t ->
  shape:Arrivals.shape ->
  rate:float ->
  duration:Time.t ->
  op:(Driver.worker_ctx -> bool) ->
  t
(** Spawn injectors and workers: each machine gets its slice of the
    cluster-wide [rate] (arrivals/s) pre-rendered from a split of its rng,
    a bounded queue ([queue_cap], default 1024) and [workers] (default 2)
    serving processes. If a machine's timeline sampler has not started
    yet, a [queue_depth] level gauge is registered on it. Does not drive
    the engine — the caller advances time (and may inject faults
    in between); arrivals past [duration] do not exist. Injectors and
    workers die with their machine. *)

val stop : t -> unit
(** Declare the arrival window over: injectors stop admitting, workers
    drain what is queued and then exit. *)
