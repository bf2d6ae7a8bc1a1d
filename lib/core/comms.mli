open Farm_sim
open Farm_net

(** Messaging helpers enforcing precise membership (§5.2): machines never
    issue requests to machines outside their configuration. *)

val send :
  ?prio:bool ->
  ?transport:[ `Rc | `Ud ] ->
  ?cpu_cost:Time.t ->
  ?flow:int ->
  State.t ->
  dst:int ->
  Wire.message ->
  unit
(** [flow] is the message's trace-context correlation id (see
    {!Fabric.send}); in-memory only, never on the wire. *)

val call :
  ?timeout:Time.t -> ?flow:int -> State.t -> dst:int -> Wire.message ->
  (Wire.message, Fabric.error) result

val reply_to : (bytes:int -> Wire.message -> unit) -> Wire.message -> unit

val par_iter : State.t -> (unit -> unit) list -> unit
(** Run jobs concurrently as child processes of this machine and wait for
    all — how commit-protocol writes reach all participants in parallel. *)
