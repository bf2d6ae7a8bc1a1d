(** Discrete-event simulation engine.

    The engine owns the virtual clock and an event queue of callbacks.
    Events scheduled at the same instant run in scheduling (FIFO) order, so a
    run is fully deterministic. Exceptions raised by an event callback
    propagate out of {!run}; the test-suite relies on this to surface
    protocol assertion failures. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute instant. Instants in the past are
    clamped to [now]. *)

val schedule_in : t -> after:Time.t -> (unit -> unit) -> unit
(** Schedule a callback after a relative delay. Nothing can cancel it: a
    deadline that a reply may beat is a {!timer}. *)

type timer

val timer : t -> after:Time.t -> (unit -> unit) -> timer
(** [timer t ~after fn] schedules [fn] like {!schedule_in} and returns a
    handle that can cancel it. [after] must be positive: the callback runs
    at a later instant than the one that armed it. Raises
    [Invalid_argument] otherwise. *)

val cancel : t -> timer -> unit
(** Drop a timer before it runs: its callback is never run, never counted
    in {!events_processed} or {!pending}, and no longer held. A no-op on a
    timer that has already run or been cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Process events in time order until the queue is empty, [stop] is called,
    or the clock would pass [until] (in which case the clock is set to
    [until] and remaining events stay queued for a later [run]). *)

val stop : t -> unit

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Total events executed since creation; a cheap progress/efficiency
    metric for benchmarks. *)
