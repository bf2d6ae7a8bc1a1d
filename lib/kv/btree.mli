open Farm_core

(** The FaRM B-tree (§6.2): integer keys, word-sized values, fence keys for
    consistent traversals (as in Minuet), and per-machine caching of
    internal nodes so a lookup usually costs a single RDMA read.

    Mutations run inside the enclosing FaRM transaction with real reads of
    every touched node, so OCC makes structure modifications strictly
    serializable. Read-only traversals may use cached internal nodes; the
    leaf's fence keys catch stale routes and trigger invalidation + retry.
    Interior nodes are never freed (deletes do not rebalance), so stale
    cached pointers always reach a valid node. *)

type t = {
  root_ptr : Addr.t;
  regions : int array;
  fanout : int;
  cache : Bytes.t Farm_sim.Int_tbl.t;  (** per-machine internal nodes, dropped when a lock-free lookup falls back *)
}

type node = {
  leaf : bool;
  lo : int;  (** inclusive fence *)
  hi : int;  (** exclusive fence *)
  keys : int array;
  slots : int array;
  next : Addr.t option;
}

val create : State.t -> thread:int -> regions:int array -> ?fanout:int -> unit -> t

val node_data_size : t -> int
val parse : t -> Bytes.t -> node
val serialize : t -> node -> Bytes.t

(** {1 Transactional operations} *)

val find : Txn.t -> t -> int -> int option
val insert : Txn.t -> t -> int -> int -> unit
val delete : Txn.t -> t -> int -> bool

val range : Txn.t -> t -> lo:int -> hi:int -> (int * int) list
(** All [(key, value)] pairs with [lo <= key <= hi], in key order,
    following the leaf chain. *)

val check_invariants : Txn.t -> t -> string list * int
(** Walk the whole tree inside the transaction: verify fence keys, key
    ordering, internal arity, and the leaf chain. Returns (violations,
    total keys); used by the test-suite. *)

(** {1 Cached lock-free lookups} *)

val lookup_lockfree : State.t -> t -> int -> int option
(** Navigate cached internal nodes, read the leaf with one RDMA read,
    check its fences; falls back to a transactional lookup (refreshing the
    cache) on a stale route. *)
