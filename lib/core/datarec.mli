(** Bulk data recovery (§5.4).

    New backups start from zeroed replicas and re-replicate regions with
    one-sided reads from the primary, slab block by slab block, paced so
    the foreground never notices (the aggressive Figure 14/15 settings
    raise block size and in-flight reads). Every recovered object is
    version-checked before being applied, so races with the new
    transactions that already reach this backup's log are benign. Starts
    only at ALL-REGIONS-ACTIVE; also kicks allocator recovery for promoted
    primaries. *)

val on_all_regions_active : State.t -> unit
