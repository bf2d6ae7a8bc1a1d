(** A machine's CPU modelled as [k] hardware threads fed from one FCFS
    queue (a G/G/k service center).

    Work items claim the earliest-free thread; when all threads are busy the
    item queues, which is what produces realistic saturation knees in the
    throughput-latency curves. One-sided RDMA bypasses this resource at the
    target machine entirely — the defining property the FaRM protocols
    exploit. *)

type t

val create : Engine.t -> threads:int -> t

val set_slow_factor : t -> int -> unit
(** Gray-failure injection hook: multiply every subsequently claimed cost
    by this factor (default 1). The machine stays alive and correct but
    runs k x slower — a thermally throttled or noisy-neighbour host rather
    than a crashed one. [busy_total] accumulates the scaled cost (the
    threads really are busy that long). Raises on factors < 1. *)

val exec : t -> cost:Time.t -> unit
(** Run [cost] worth of CPU work; blocks the calling process until the work
    completes (including any queueing delay). *)

val exec_bg : ?ctx:Proc.Ctx.t -> t -> cost:Time.t -> (unit -> unit) -> unit
(** Schedule background CPU work; [fn] runs when the work completes, unless
    [ctx] was cancelled in the meantime. Usable outside a process. *)

val queue_delay : t -> Time.t
(** Delay a zero-cost item would currently experience before starting. *)

val busy_total : t -> Time.t
(** Cumulative CPU time consumed across all threads. *)

type snapshot
(** Busy-time snapshot marking the start of a measurement window. *)

val snapshot : t -> snapshot

val utilization : t -> since:snapshot -> until:Time.t -> float
(** Fraction of thread-capacity consumed between the snapshot and [until]:
    only busy time accumulated after [since] counts, so windows that start
    mid-run report correctly. Work is charged in full when claimed, so a
    burst claimed just before [until] can report above 1. *)
