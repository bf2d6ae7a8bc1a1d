open Farm_sim

(** Transaction execution phase (§3, §4).

    Reads go to primaries — one-sided RDMA when remote, local memory access
    otherwise — and record the version of every object they touch; writes
    (and allocations/frees) are buffered at the coordinator until
    {!Commit.commit}. *)

type abort_reason =
  | Conflict  (** lock or validation failure: a concurrent writer won *)
  | Not_allocated  (** the object was freed *)
  | Out_of_space
  | Failed  (** unresolvable machine failures; recovery aborted the tx *)
  | Explicit  (** the application called {!Api.abort} *)

val pp_abort : Format.formatter -> abort_reason -> unit

exception Abort of abort_reason

type t = {
  st : State.t;
  thread : int;
  t_started : Time.t;
  span : Farm_obs.Obs.Span.t;  (** opened at [t_started], in [P_execute] *)
  mutable nreads : int;
  mutable rkeys : int array;
      (** read set: packed addresses ({!Addr.pack}), ascending; the first
          [nreads] slots of [rkeys], [rvers] and [rvals] are live *)
  mutable rvers : int array;  (** version observed *)
  mutable rvals : Bytes.t array;  (** data as read; never mutated *)
  mutable nwrites : int;
  mutable wkeys : int array;
      (** write set, laid out like the read set over [nwrites] slots *)
  mutable wvers : int array;  (** version the write locks at *)
  mutable wvals : Bytes.t array;  (** buffered new data *)
  mutable wallocs : Wire.alloc_op array;
  mutable allocated : (Addr.t * int) list;
  mutable finished : bool;
  mutable read_ts : int;
      (** snapshot protocol: read timestamp drawn at begin and registered
          in [State.read_ts_active]; -1 in the validate-at-commit
          baseline *)
}

val reason_index : abort_reason -> int
(** Stable tag, carried as the [K_tx_abort] event's argument. *)

val begin_tx : State.t -> thread:int -> t
(** Under the snapshot protocol, also draws the transaction's read
    timestamp (the local clock's lower bound) and registers it against
    the truncation watermark. *)

val release_read_ts : t -> unit
(** Drop the transaction's claim on its read timestamp once it settles
    (commit or abort). Idempotent; no-op in the baseline. *)

val read : t -> Addr.t -> len:int -> Bytes.t
(** Read [len] data bytes of an object into a buffer private to the
    caller, which may mutate or keep it. Atomic per object; successive
    reads return the same data; reads of objects written by this
    transaction return the buffered value. Raises {!Abort} on conflicts
    that cannot resolve, on freed objects, and on unrecoverable failures. *)

val view : t -> Addr.t -> len:int -> Bytes.t
(** Like {!read}, but returns the transaction's own buffer for the
    object, uncopied: its write if it has one, else the data as read
    ([len] bytes are fetched on a miss; the buffer is returned whole).
    The caller must not mutate it. A view of a written object changes
    when {!modify} or {!write} later changes the write. *)

val modify : t -> Addr.t -> len:int -> Bytes.t
(** The object's buffered write, for the caller to edit in place: made on
    first use from a copy of the data as read (reading it first on a
    miss), and locked at the version read. *)

val written : t -> Addr.t -> bool
(** Whether the transaction buffers a write (or allocation, or free) of
    the object. *)

val write : t -> Addr.t -> Bytes.t -> unit
(** Buffer a write. The object's observed version (fetched if it was not
    read first) becomes the lock target at commit. *)

val alloc : t -> size:int -> ?near:Addr.t -> ?region:int -> unit -> Addr.t
(** Allocate an object. The slot is tentatively taken from the primary's
    slab free list during execution, but its allocation bit is only set at
    commit, so aborts and crashes leak nothing (§5.5). [near] places the
    object in the same region as an existing one (locality hint). *)

val free : t -> Addr.t -> unit
(** Free an object at commit. Freeing an object allocated by this same
    transaction cancels both operations. *)

val return_allocations : t -> unit
(** Return tentatively allocated slots after an abort. *)

(** {1 Internals shared with Commit and the harness} *)

val ensure_mapping : State.t -> int -> retries:int -> Wire.region_info option
(** Cached region-to-replicas mapping, fetched from the CM on miss. *)

val read_versioned :
  ?span:Farm_obs.Obs.Span.t -> State.t -> addr:Addr.t -> len:int -> int * Bytes.t
(** Versioned read with retries across lock conflicts and
    reconfigurations. [span] lets the one-sided read claim its blame
    sub-intervals on the calling transaction's span. *)
