open Farm_sim

(** Failure detection with leases (§5.1).

    Every machine holds a lease at the CM and vice versa, granted by a
    3-way handshake and renewed every lease/5. A lease is an interval
    starting when the granter *sent* it, so a grant delayed in a shared
    queue arrives already stale — the effect behind Figure 16.

    The four lease-manager implementations of §6.5 are selected per machine
    via [State.lease.impl]; they differ in whether lease traffic shares NIC
    queues with bulk traffic, shares worker threads with foreground work,
    runs on a dedicated (preemptible) thread, or is interrupt-driven at
    high priority. *)

val scheduling_delay : State.t -> Time.t
(** Delay before this machine's lease manager gets to run, per the
    configured implementation (CPU queue for shared-thread variants,
    preemption spikes for the dedicated thread, microseconds for the
    interrupt-driven one). *)

val quantize : State.t -> Time.t -> Time.t
(** Round a wakeup up to the system-timer resolution for timer-driven
    implementations. *)

val grant_all : State.t -> int list -> unit
(** Reset a CM's lease table for a new configuration: every member's lease
    starts now. The lease layout is {!Reconfig.lease_group}. *)

val handle : State.t -> src:int -> Wire.message -> unit
(** Process a lease message (the dispatcher's dedicated fast path). *)

val start : State.t -> unit
(** Start the renewal loop, expiry checker, and (for [Ud_thread]) the
    preemption-spike generator. *)

(** {1 Nemesis hooks} — fault injection for the schedule fuzzer. *)

val inject_stall : State.t -> duration:Time.t -> unit
(** Stall this machine's lease manager: renewals and grants queued during
    the stall run only after it ends (a GC pause / scheduler outage). *)

val inject_clock_skew : State.t -> delta:Time.t -> unit
(** Make this machine's lease clock run fast by [delta]: every lease it
    holds or granted looks that much older, so expiries can fire early. *)
