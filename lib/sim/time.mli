(** Simulated time.

    Time is an absolute instant or a duration measured in integer
    nanoseconds. On a 64-bit platform this covers ~146 years of simulated
    time, far beyond any experiment in the harness. *)

type t = int

val zero : t

(** {1 Constructors} *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

(** {1 Conversions} *)

val to_ns : t -> int
val to_us_float : t -> float
val to_ms_float : t -> float
val to_s_float : t -> float
val of_ms_float : float -> t

(** {1 Arithmetic and comparison} *)

val add : t -> t -> t
val sub : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is [a - b]. *)

val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val mul_int : t -> int -> t
val div_int : t -> int -> t

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
