open Farm_sim

type protocol = Validate_at_commit | Snapshot

type t = {
  (* memory layout *)
  region_size : int;
  log_size : int;
  (* replication *)
  replication : int;
  (* transactions *)
  protocol : protocol;
  validate_rpc_threshold : int;
  (* leases (§5.1) *)
  lease_duration : Time.t;
  (* recovery (§5.2-5.5) *)
  recovery_block : int;
  recovery_interval : Time.t;
  recovery_concurrency : int;
  incremental_cm_state : bool;
  lease_group_size : int;
  (* CPU cost model *)
  threads_per_machine : int;
}

(* Defaults are scaled for simulation speed: regions are 1 MB rather than
   2 GB and machines run 4-8 worker threads rather than 30, but every ratio
   that shapes the paper's figures (lease/renewal, pacing intervals, the
   tr=4 validation threshold, f+1=3 replication) keeps its paper value. *)
let default =
  {
    region_size = 1 lsl 20;
    log_size = 1 lsl 21;
    replication = 3;
    protocol = Validate_at_commit;
    validate_rpc_threshold = 4;
    lease_duration = Time.ms 10;
    recovery_block = 8 * 1024;
    recovery_interval = Time.ms 2;
    recovery_concurrency = 1;
    incremental_cm_state = false;
    lease_group_size = 0;
    threads_per_machine = 8;
  }

(* memory layout *)
let block_size = 16 * 1024
let regions_per_machine_cap = 512

(* global time (snapshot protocol only) *)
let clock_eps = Time.us 5
let wm_interval = Time.us 500
let park_timeout = Time.ms 10

(* leases (§5.1) and recovery (§5.2-5.5) *)
let lease_renew_divisor = 5
let lease_check_interval = Time.us 500
let vote_timeout = Time.us 250
let alloc_scan_batch = 100
let alloc_scan_interval = Time.us 100
let backup_cms = 2
let backup_cm_timeout = Time.ms 30
let reconfig_ack_timeout = Time.ms 20
let truncate_flush_interval = Time.ms 2

(* CPU cost model *)
let cpu_tx_begin = Time.ns 300
let cpu_local_read = Time.ns 400
let cpu_lock_per_obj = Time.ns 500
let cpu_commit_per_obj = Time.ns 600
let cpu_validate_per_obj = Time.ns 300
let cpu_log_poll = Time.ns 400
let cpu_recovery_per_tx = Time.us 2
let cpu_cm_rebuild = Time.ms 60
