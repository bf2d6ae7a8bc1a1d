open Farm_sim
open Farm_core
open Farm_kv

(** TPC-C (§6.2): five transactions over a 16-index schema — twelve
    unordered indexes as FaRM hash tables and four ordered indexes as FaRM
    B-trees — hash tables and clients co-partitioned by warehouse (~90% of
    transactions stay local; recovery parallelism drops accordingly,
    Figure 10). Scale is configurable; mix ratios keep their spec values
    (45% new-order, 43% payment, 4% each of the rest; 1% remote items, 15%
    remote payments, 1% intentional new-order rollbacks). *)

type scale = {
  warehouses : int;
  districts : int;  (** per warehouse (spec: 10) *)
  customers : int;  (** per district (spec: 3000) *)
  items : int;  (** global (spec: 100k) *)
}

val default_scale : scale

type t = {
  scale : scale;
  groups : int;
  warehouse : Hashtable.t;
  district : Hashtable.t;
  customer : Hashtable.t;
  item : Hashtable.t;
  stock : Hashtable.t;
  order : Hashtable.t;
  new_order : Hashtable.t;
  order_line : Hashtable.t;
  history : Hashtable.t;
  last_order : Hashtable.t;
  order_tree : Btree.t array;  (** ordered indexes, per co-partition group *)
  no_tree : Btree.t array;
  ol_tree : Btree.t array;
  cust_name_tree : Btree.t array;
  new_orders : Stats.Counter.t;  (** the reported metric of Figures 8/10 *)
  no_latency : Stats.Hist.t;
  no_series : Stats.Series.t;
  mutable history_seq : int;
}

val create : Cluster.t -> scale:scale -> unit -> t
val load : Cluster.t -> t -> unit

(** {1 The five transactions} — [w] is the client's home warehouse. *)

val new_order : t -> Driver.worker_ctx -> w:int -> bool
val payment : t -> Driver.worker_ctx -> w:int -> bool

val op : t -> Driver.worker_ctx -> bool
(** One operation of the standard mix. *)

(** {1 Consistency checks (TPC-C consistency conditions)} *)

val check_ytd : Cluster.t -> t -> bool
(** W_YTD = sum of the warehouse's D_YTD. *)

val check_orders : Cluster.t -> t -> bool
(** Orders are dense per district up to d_next_o_id. *)
