(** Message dispatch and machine startup: the per-machine event loop of
    Figure 3, wiring the fabric's receive path to the protocol modules.
    Lease traffic takes a dedicated fast path (§5.1); everything else is
    charged the RPC receive cost on the shared worker threads before
    dispatching. *)

val start : State.t -> unit
(** Attach log processing to every incoming ring log, start the truncation
    flusher and the lease manager, install the suspicion and fabric
    handlers, and initialize CM state if this machine is the CM. *)
