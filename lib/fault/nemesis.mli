open Farm_sim
open Farm_core

(** Fault application: translates scripted faults into the cluster's
    injection hooks. Each applied fault is logged in the cluster log as a
    [K_fault] event whose argument is its index in the schedule, and each
    stall of a lease flap as a [K_flap_stall] event, so a replayed seed
    yields an identical event trace. *)

val run : Cluster.t -> start:Time.t -> Schedule.t -> unit
(** Advance the simulation to each event (relative to [start]) and apply
    it; returns at the last event's instant. Crashing, stalling, skewing
    or throttling a dead machine and restarting a live one are skipped
    and not logged (schedules are generated without knowledge of prior
    faults' outcomes). Must not be called from within an engine
    callback: power-cycling drives the engine internally. *)
