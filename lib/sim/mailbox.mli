(** Unbounded FIFO channels between processes. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val send : 'a t -> 'a -> unit
(** Never blocks; hands the value to the longest-waiting receiver if any. *)

val recv : 'a t -> 'a
(** Block the calling process until a value is available. *)

val recv_opt : 'a t -> 'a option
(** Non-blocking receive. *)
