(** Deterministic splittable pseudo-random numbers (xoshiro256** seeded via
    splitmix64).

    The simulator never touches [Stdlib.Random]: every source of randomness
    is an explicit [Rng.t], so a run is a pure function of its seed. [split]
    derives an independent stream, used to give each machine/workload its own
    generator so that adding events in one component does not perturb
    another. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** Derive an independent generator; advances the parent by one step. *)

val next_int64 : t -> int64

val bits : t -> int
(** 62 uniform non-negative bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val shuffle_in_place : t -> 'a array -> unit
