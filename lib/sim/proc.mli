(** Cooperative green processes over the simulation engine, implemented with
    OCaml 5 effect handlers.

    A process is ordinary direct-style code that may block on simulated
    events ({!sleep}, {!Ivar.read}, {!Mailbox.recv}, {!Cpu.exec}, network
    completions, ...). Blocking is an effect handled by the process's
    spawner; the continuation is parked and rescheduled as an engine event
    when the awaited condition fires.

    Every process belongs to a cancellation context {!Ctx.t}; crashing a
    simulated machine cancels its context, and any parked continuation of
    that context is discontinued with {!Cancelled} at its next resumption
    point. This models a machine's CPU stopping dead while its NVRAM (owned
    by separate structures) survives. *)

exception Cancelled

module Ctx : sig
  type t

  val create : ?name:string -> unit -> t
  val cancel : t -> unit
  val is_cancelled : t -> bool
  val name : t -> string
end

type env = { engine : Engine.t; ctx : Ctx.t }

val spawn : ?ctx:Ctx.t -> ?name:string -> Engine.t -> (unit -> unit) -> unit
(** Schedule a new process to start at the current instant. *)

(** {1 Operations valid only inside a process} *)

val env : unit -> env
(** The running process's engine and context, read from a per-domain slot
    that each resumption sets. Raises [Invalid_argument] outside a
    process. *)

val engine : unit -> Engine.t
val self_ctx : unit -> Ctx.t
val now : unit -> Time.t

val suspend : ((('a, exn) result -> unit) -> unit) -> 'a
(** [suspend register] parks the current process and calls
    [register resume]. The process resumes (as a fresh engine event) when
    [resume] is invoked; later invocations of [resume] are ignored. *)

val sleep_until : Time.t -> unit
(** Park until the given instant (clamped to now). Costs two events, like
    every wake-up: a timer at the instant, then the resume at it. *)

val sleep : Time.t -> unit

val yield : unit -> unit
(** Re-schedule at the current instant, letting other ready events run. *)

val check_cancelled : unit -> unit
(** Raise {!Cancelled} if this process's context has been cancelled. *)
