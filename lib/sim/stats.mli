(** Measurement primitives for the benchmark harness. *)

module Hist : sig
  (** Log-linear latency histogram (HDR-style): exact below 32, 32
      sub-buckets per octave above, ≤3% relative bucket error. *)

  type t

  val create : unit -> t

  val record : t -> int -> unit
  (** Record a non-negative sample (negative samples clamp to 0). *)

  val count : t -> int
  val mean : t -> float
  (** Exact while the sum of samples stays below 2{^53}. *)

  val min_value : t -> int
  val max_value : t -> int

  val percentile : t -> float -> int
  (** [percentile t 99.0] is an upper bound on the 99th-percentile sample,
      accurate to the bucket resolution. 0 when empty. *)

  val merge : into:t -> t -> unit
  val clear : t -> unit

  val index : int -> int
  (** Bucket of a non-negative sample. *)
end

module Series : sig
  (** Time-binned event counts: the 1 ms-binned throughput timelines of the
      paper's failure figures. *)

  type t

  val create : bin:Time.t -> t
  val add : t -> at:Time.t -> int -> unit
  val bin : t -> Time.t
  val get : t -> int -> int

  val to_list : t -> until:Time.t -> (Time.t * int) list
  (** Bins from time 0 to [until] as [(bin_start, count)] pairs. *)

  val rate_per_us : t -> int -> float
end

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val clear : t -> unit
end
