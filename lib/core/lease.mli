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

(** {1 Two-level hierarchy (§5.1)} — enabled by [Params.lease_group_size]:
    members form groups in identifier order; the lowest member of each
    group leads. Leaders exchange leases with the CM, members with their
    leader; leaders report member expiries to the CM. CM lease traffic
    drops from O(n) to O(n / group), detection latency at worst doubles. *)

val renew_target : State.t -> int
(** The machine this one renews with: its group leader, or the CM. *)

val is_leader : State.t -> bool

val watched_members : State.t -> int list
(** The machines whose leases this one is responsible for checking. *)

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
