open Farm_sim

(** Shared mutable state of one FaRM machine.

    All protocol modules ({!Commit}, {!Logproc}, {!Lease}, {!Cm},
    {!Recovery}, {!Datarec}, {!Allocmgr}) operate on this record; {!Node}
    wires message dispatch; {!Cluster} builds the fleet.

    State splits between process state, which dies with the machine
    (caches, coordinator tables, leases, configuration), and NVRAM state
    ([nv]), owned by the cluster harness and surviving crashes: region
    replicas, block headers, and incoming ring logs. *)

type role = Primary | Backup

type replica = {
  rid : int;
  mem : Farm_nvram.Pagemem.t;  (** the region bytes, in NVRAM; paged on first write *)
  mutable role : role;
  mutable active : bool;
      (** false while blocked for lock recovery (§5.3 step 1) *)
  mutable active_wait : unit Ivar.t;
  block_headers : (int, int) Hashtbl.t;
      (** block index -> object size; replicated in NVRAM (§5.5) *)
  free_lists : (int, int list ref) Hashtbl.t;
      (** primary-only, volatile: object size -> free offsets *)
  free_set : (int, unit) Hashtbl.t;
      (** membership mirror: an offset is listed at most once *)
  mutable next_free_block : int;
  mutable free_lists_valid : bool;
      (** false on a new primary until the recovery scan finishes *)
  mutable fresh_backup : bool;
      (** zeroed replica awaiting bulk data recovery (§5.4) *)
  vc : Verchain.t option;
      (** snapshot protocol only: archived object versions and head commit
          timestamps; [None] in the validate-at-commit baseline *)
}

type nvstate = {
  bank : Farm_nvram.Bank.t;
  replicas : (int, replica) Hashtbl.t;
  logs_in : (int, Ringlog.t) Hashtbl.t;  (** sender -> log stored here *)
}

(** {1 Coordinator wait-states} *)

type lock_wait = {
  mutable lw_awaiting : int;
  mutable lw_ok : bool;
  lw_done : unit Ivar.t;
  mutable lw_max_ts : int;
      (** snapshot protocol: largest head commit timestamp among the locked
          objects, folded in from the LOCK replies *)
}

type outcome = Committed | Aborted

type tx_live = {
  lt_txid : Txid.t;
  lt_written_regions : int list;
  lt_read_regions : int list;
  lt_outcome : outcome Ivar.t;  (** filled by recovery when it takes over *)
  mutable lt_recovering : bool;
  lt_born : Time.t;  (** commit start, for the coordinator's park watchdog *)
}

type trunc_track = { mutable low : int; mutable above : int array; mutable n_above : int }
(** Truncation tracking per coordinator thread: a low bound plus the set of
    truncated local ids at or above it (§5.3 step 6), held sorted in the
    first [n_above] entries of [above]. Every receiver has one tracker per
    coordinator thread and each set stays a handful of ids, so each costs
    a few words. *)

type rec_coord = {
  rc_txid : Txid.t;
  mutable rc_votes : (int * Wire.vote) list;
  mutable rc_regions : int list;
  mutable rc_decided : bool;
  mutable rc_pushing : bool;  (** a decision-push loop is running *)
  rc_created : Time.t;
}
(** Recovery-coordinator state for one recovering transaction. *)

type region_recovery = {
  mutable rr_txs : Txid.Set.t;  (** recovering transactions affecting it *)
  mutable rr_heard : int list;  (** backups whose NEED-RECOVERY arrived *)
  mutable rr_credited : (int * Txid.t) list;
      (** the (backup, transaction) pairs {!Evidence.credits} credited:
          step 5 does not replicate the transaction to that backup *)
}
(** What a (new) primary learns about one of its regions during recovery
    (§5.3 steps 3-5). *)

type recovery_state = {
  rs_cfg : int;
  rs_local : Wire.tx_evidence Txid.Tbl.t;
      (** evidence about recovering transactions assembled here *)
  rs_regions : region_recovery Int_tbl.t;  (** keyed by region id *)
  mutable rs_regions_active_sent : bool;
}
(** Per-configuration-change recovery state (§5.3). *)

type lease_impl = Rpc_shared | Ud_shared | Ud_thread | Ud_thread_pri
(** The four lease-manager implementations of Figure 16. *)

type lease_state = {
  mutable impl : lease_impl;
  mutable last_grant_from_cm : Time.t;  (** last grant from my grantor *)
  mutable expiry_events : int;
  mutable suspended_until : Time.t;
  mutable cm_suspected : bool;
  peer_leases : (int, Time.t) Hashtbl.t;
      (** grantor side (the CM, and group leaders in the two-level
          hierarchy): machine -> last renewal received *)
  mutable grantor_messages : int;
}

type cm_state = {
  mutable next_rid : int;
  owners : (int, Wire.region_info) Hashtbl.t;  (** authoritative region map *)
  mutable regions_active_from : int list;
  mutable all_active_sent : bool;
  mutable ack_pending : (int * int list ref * unit Ivar.t) option;
  mutable pending_data_recovery : int;
  cm_wms : (int, int) Hashtbl.t;
      (** snapshot protocol: last watermark reported per machine *)
}

type commit_phase =
  | Before_lock
  | After_lock
  | After_validate
  | After_commit_backup
  | After_commit_primary
  | After_truncate
      (** Hook points for the failure-injection tests. *)

type t = {
  id : int;
  engine : Engine.t;
  rng : Rng.t;
  params : Params.t;
  fabric : Wire.message Farm_net.Fabric.t;
  zk : Config.t Farm_coord.Zk.t;
  cpu : Cpu.t;
  nv : nvstate;
  clock : Clock.handle;
      (** this machine's bounded-uncertainty view of global time; present
          in both modes (keeps rng streams aligned), read only by the
          snapshot protocol *)
  mutable ctx : Proc.Ctx.t;
  mutable alive : bool;
  mutable config : Config.t;
  mutable region_map : Wire.region_info Int_tbl.t;  (** mapping cache *)
  mutable blocked : bool;  (** external client requests blocked *)
  mutable rejoining : bool;
      (** restarted after a crash: stays out of configurations that predate
          the reincarnation (see {!Cluster.restart_machine}) *)
  logs_out : Ringlog.t Int_tbl.t;  (** sender views of remote logs *)
  spill : int Int_tbl.t;
      (** full region -> co-located overflow region for allocation *)
  next_local : int array;
  outstanding : Txid.Set.t ref Int_tbl.t;
  pending_lock : lock_wait Txid.Tbl.t;
  active_txs : tx_live Txid.Tbl.t;
  read_ts_active : int Int_tbl.t;
      (** snapshot protocol: active read timestamps (ts -> holder count);
          their minimum caps the local truncation watermark *)
  locks_held : Wire.write_item list Txid.Tbl.t;
      (** primary-side lock ownership: the ABORT path must release exactly
          the locks its transaction took *)
  pending_trunc : Txid.t list ref Int_tbl.t;
  truncated : trunc_track Int_tbl.t;  (** keyed by {!Txid.coord_id} *)
  mutable log_writes : int;
      (** sender side: log records prepared whose write result is not yet
          known; dies with the process on a kill *)
  mutable inflight : int;
  mutable inflight_blocked : int;
  deferred_trunc : Txid.Set.t ref Int_tbl.t;
  mutable recovery : recovery_state option;
  rec_coords : rec_coord Txid.Tbl.t;
  recovered_outcomes : outcome Txid.Tbl.t;
  lease : lease_state;
  mutable cm : cm_state option;
  mutable reconfig_active : bool;
  mutable pending_suspects : int list;
  obs : Farm_obs.Obs.t;  (** per-machine observability sink *)
  directory : t Int_tbl.t;
      (** the cluster's "memory bus": one-sided operations reach remote
          replicas through it without touching the remote CPU *)
  mutable on_suspect : int list -> unit;
  mutable app_handler : (tag:int -> args:int array -> bool) option;
  mutable phase_hook : (commit_phase -> Txid.t -> unit) option;
}

val create :
  id:int ->
  engine:Engine.t ->
  rng:Rng.t ->
  params:Params.t ->
  fabric:Wire.message Farm_net.Fabric.t ->
  zk:Config.t Farm_coord.Zk.t ->
  cpu:Cpu.t ->
  nv:nvstate ->
  clock:Clock.handle ->
  config:Config.t ->
  directory:t Int_tbl.t ->
  obs:Farm_obs.Obs.t ->
  t

val now : t -> Time.t
val is_cm : t -> bool
val ensure_cm : t -> cm_state
val peer : t -> int -> t option

(** {1 Replicas and regions} *)

val add_replica : t -> rid:int -> role:role -> replica
(** Create (or find) the local replica record, backed by zeroed NVRAM. *)

val region_info : t -> int -> Wire.region_info option
val primary_of : t -> int -> int option
val replica : t -> int -> replica option
val replica_exn : t -> int -> replica

val await_active : replica -> unit
(** Block until lock recovery re-activates the region (§5.3 step 4). *)

val set_active : replica -> unit
val set_inactive : replica -> unit

(** {1 Logs and transactions} *)

val log_to : t -> int -> Ringlog.t

val fresh_txid : t -> thread:int -> Txid.t
val low_bound : t -> thread:int -> int
val forget_outstanding : t -> Txid.t -> unit

(** {1 Recovery} *)

val region_recovery : recovery_state -> int -> region_recovery
(** The record of region [rid] in this recovery, created empty on first
    use. *)

(** {1 Truncation tracking} *)

val trunc_track : t -> coord:int -> trunc_track
(** [coord] is a {!Txid.coord_id}-packed coordinator-thread identity. *)

val mark_truncated : t -> Txid.t -> unit
val update_low_bound : t -> coord:int -> int -> unit
val is_truncated : t -> Txid.t -> bool

val queue_truncation : t -> dst:int -> Txid.t -> unit
val take_truncations : t -> dst:int -> Txid.t list

(** {1 Snapshot read timestamps and the truncation watermark} *)

val register_read_ts : t -> int -> unit
val release_read_ts : t -> int -> unit

val local_watermark : t -> int
(** min(smallest active read timestamp, clock lower bound): the largest
    watermark this machine can safely contribute to the cluster minimum —
    no transaction that begins here later can draw a smaller read
    timestamp. *)

val trim_chains : t -> wm:int -> int
(** Truncate every local replica's version chain below the cluster
    watermark; returns (and counts on [C_wm_trim]) the nodes recycled. *)

(** {1 Metrics and hooks} *)

val record_commit : t -> latency:Time.t -> unit

(** Why an abort happened, at the protocol level: a refused LOCK record, a
    failed VALIDATE read, a timeout (participant death / NIC give-up), or
    anything else (application aborts, allocation failures). Feeds the
    [C_abort_*] breakdown counters. *)
type abort_cause = Cause_lock | Cause_validate | Cause_timeout | Cause_other

val record_abort : ?reason:int -> ?cause:abort_cause -> t -> unit
(** [reason] is the {!Txn.abort_reason} tag carried on the flight-recorder
    event; [cause] the protocol-level breakdown bucket (derived from
    [reason] when omitted: [Failed] maps to [Cause_timeout], everything
    else to [Cause_other]). *)

val phase : t -> commit_phase -> Txid.t -> unit
