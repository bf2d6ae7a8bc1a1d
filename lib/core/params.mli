open Farm_sim

(** The settings of the FaRM reproduction, with paper defaults where the
    paper gives them and scaled-down memory sizes for simulation speed (see
    DESIGN.md §1). The record {!t} holds what callers vary between runs;
    every setting that has one value everywhere is a module-level constant
    below it. *)

type protocol =
  | Validate_at_commit
      (** the FaRM SOSP'15 protocol: reads record versions and are
          re-checked at commit (VALIDATE phase); read-only transactions can
          abort under contention. The ablation baseline. *)
  | Snapshot
      (** FaRMv2-style opacity via global time: transactions read a
          globally-consistent snapshot taken from a bounded-uncertainty
          clock, objects keep per-version chains, and read-only
          transactions commit locally with zero VALIDATE messages and zero
          aborts. Read-write transactions still lock and validate. *)

type t = {
  region_size : int;  (** bytes per region (paper: 2 GB; sim default 1 MB) *)
  log_size : int;  (** per sender-receiver transaction ring log, bytes *)
  replication : int;  (** f+1 copies of every region (paper default 3) *)
  protocol : protocol;  (** read/validate stack variant (see {!protocol}) *)
  validate_rpc_threshold : int;
      (** tr: reads per primary above which validation switches from
          one-sided RDMA to RPC (paper: 4) *)
  lease_duration : Time.t;  (** paper experiments use 10 ms *)
  recovery_block : int;  (** data-recovery read unit (8 KB) *)
  recovery_interval : Time.t;
      (** pacing: next block read starts at a random point in this interval *)
  recovery_concurrency : int;  (** concurrent block reads per thread *)
  incremental_cm_state : bool;
      (** the paper's §6.4 suggested optimization: every machine maintains
          the CM-only data structures incrementally, so a new CM skips the
          rebuild that dominates Figure 11 *)
  lease_group_size : int;
      (** > 0 enables the two-level lease hierarchy the paper sketches for
          larger clusters (§5.1): machines form groups of this size, group
          leaders exchange leases with the CM, members with their leader —
          CM lease traffic drops from O(n) to O(n / group), at the price of
          up to doubled detection latency *)
  threads_per_machine : int;
}

val default : t

(** {1 Memory layout} *)

val block_size : int
(** slab block size (paper: 1 MB) *)

val regions_per_machine_cap : int
(** placement capacity constraint *)

(** {1 Global time (snapshot protocol only)} *)

val clock_eps : Time.t
(** ε of the simulated clock-synchronisation service: every machine's
    clock reads as an interval [\[lo, hi\]] of width 2ε guaranteed to
    contain true (engine) time. Snapshot-mode writers wait out the
    uncertainty at commit (see {!Farm_sim.Clock}). *)

val wm_interval : Time.t
(** snapshot mode: period of the per-machine low-watermark report to the
    CM, which drives old-version truncation of the chains *)

val park_timeout : Time.t
(** a committing transaction parked this long past any normal round trip
    means a message was lost to a transient partition that may heal
    without an eviction — the coordinator then drives the vote/decide
    machinery itself instead of waiting for a configuration change that
    never classifies it as recovering *)

(** {1 Leases (§5.1) and recovery (§5.2-5.5)} *)

val lease_renew_divisor : int
(** renew every lease/5 *)

val lease_check_interval : Time.t

val vote_timeout : Time.t
(** explicit REQUEST-VOTE after 250 us *)

val alloc_scan_batch : int
(** allocator recovery: objects per burst (100) *)

val alloc_scan_interval : Time.t
(** allocator recovery pacing (100 us) *)

val backup_cms : int
(** k backup CMs by consistent hashing *)

val backup_cm_timeout : Time.t
val reconfig_ack_timeout : Time.t

val truncate_flush_interval : Time.t
(** background flush of pending lazy truncations *)

(** {1 CPU cost model} *)

val cpu_tx_begin : Time.t
val cpu_local_read : Time.t
val cpu_lock_per_obj : Time.t
val cpu_commit_per_obj : Time.t
val cpu_validate_per_obj : Time.t
val cpu_log_poll : Time.t
val cpu_recovery_per_tx : Time.t

val cpu_cm_rebuild : Time.t
(** extra delay when a *new* CM must rebuild CM-only data structures
    (§6.4, Figure 11) *)
