
(** The public FaRM programming model (§3).

    Applications see a global address space of objects spread over the
    cluster and manipulate it through strictly serializable transactions.
    Any application thread may start a transaction at any time and becomes
    its coordinator; reads during execution are atomic per object and see
    only committed data, but cross-object consistency is only enforced at
    commit, so execution code must tolerate (and abort on) temporary
    inconsistencies. *)

type 'a result_t = ('a, Txn.abort_reason) result

val run : State.t -> thread:int -> (Txn.t -> 'a) -> 'a result_t
(** Run one transaction attempt: execute the body, then drive the
    four-phase commit protocol (§4). Must be called from a process on the
    machine [State.t]. [thread] is the coordinator thread identifier used
    in transaction ids. *)

val run_retry : ?attempts:int -> State.t -> thread:int -> (Txn.t -> 'a) -> 'a result_t
(** Like {!run}, retrying with randomized backoff on {!Txn.Conflict} and
    transient failures. *)

val abort : unit -> 'a
(** Abort the enclosing transaction (raises {!Txn.Abort}). *)

val read_lockfree : State.t -> Addr.t -> len:int -> Bytes.t option
(** Lock-free read (§3): an optimized single-object read-only transaction
    — normally a single one-sided RDMA read with no commit phase. [None]
    if the object is unreachable or freed. *)
