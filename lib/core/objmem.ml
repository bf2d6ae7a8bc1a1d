(* Object memory operations on region replicas. *)

let header (r : State.replica) ~off = Obj_layout.get r.mem ~off

let read_object (r : State.replica) ~off ~len =
  (header r ~off, Obj_layout.read_data r.mem ~off ~len)

(* Attempt to lock an object at the version the transaction observed
   (LOCK-record processing, §4 step 1). *)
let try_lock (r : State.replica) (w : Wire.write_item) =
  let off = w.addr.Addr.offset in
  let h = header r ~off in
  if Obj_layout.is_locked h then false
  else if Obj_layout.version h <> w.version then false
  else
    Obj_layout.cas r.mem ~off ~expected:h ~desired:(Obj_layout.with_locked h true)

let unlock (r : State.replica) (w : Wire.write_item) =
  let off = w.addr.Addr.offset in
  let h = header r ~off in
  if Obj_layout.is_locked h && Obj_layout.version h = w.version then
    Obj_layout.set r.mem ~off (Obj_layout.with_locked h false)

(* The commit timestamp a write installs at: its own, else the one it is
   installed with. Evidence that predates timestamp assignment takes
   [head_ts + 1], which preserves per-object order. Top level, not a
   closure in [apply_write], which ocamlopt would allocate per write. *)
let eff_ts ~ts (w : Wire.write_item) vc ~off =
  if w.ts <> 0 then w.ts else if ts <> 0 then ts else Verchain.head_ts vc ~off + 1

(* [install]'s write to region memory and the version chain (see the
   .mli); true if applied, false if the replica was already past it. At a
   backup truncation order can invert per object, so a skipped (stale)
   write is archived in the chain, where it belongs. *)
let apply_write ~ts (r : State.replica) (w : Wire.write_item) =
  let off = w.addr.Addr.offset in
  let h = header r ~off in
  let new_version = w.version + 1 in
  if Obj_layout.version h < new_version then begin
    (* Any committed write implies the object was allocated when written:
       the allocation bit must come from the write, never be inherited from
       the local header — a promoted backup can apply a later write before
       (instead of) the object's creating transaction, and inheriting would
       leave a live object marked free forever. *)
    let allocated =
      match w.alloc_op with
      | Wire.Alloc_set | Wire.Alloc_none -> true
      | Wire.Alloc_clear -> false
    in
    (match r.State.vc with
    | None -> ()
    | Some vc ->
        let old_version = Obj_layout.version h in
        Verchain.archive vc ~off ~version:old_version ~ts:(Verchain.head_ts vc ~off)
          ~allocated:(Obj_layout.is_allocated h)
          (Obj_layout.read_data r.mem ~off ~len:(Bytes.length w.value));
        Verchain.set_head_ts vc ~off (eff_ts ~ts w vc ~off));
    Obj_layout.set r.mem ~off
      (Obj_layout.make ~locked:false ~allocated ~version:new_version);
    Obj_layout.write_data r.mem ~off w.value;
    true
  end
  else begin
    (* already applied (recovery raced normal processing): leave the header
       alone — any lock at a newer version belongs to another transaction *)
    (match r.State.vc with
    | None -> ()
    | Some vc ->
        if Obj_layout.version h > new_version then
          let allocated =
            match w.alloc_op with
            | Wire.Alloc_set | Wire.Alloc_none -> true
            | Wire.Alloc_clear -> false
          in
          Verchain.archive vc ~off ~version:new_version ~ts:(eff_ts ~ts w vc ~off) ~allocated w.value);
    false
  end

(* Read timestamps are clock lower bounds, which trail every machine's
   upper bound; readers below the floor retry at a fresh timestamp. *)
let floor_past_reads st (r : State.replica) =
  match r.State.vc with
  | Some vc -> Verchain.raise_floor vc (Farm_sim.Clock.hi st.State.clock + 1)
  | None -> ()

(* Used by COMMIT-PRIMARY processing, truncation of a COMMIT-BACKUP
   record and recovery's decided commits. A re-delivered write applies
   nothing, so it returns no slot. *)
let install ?(ts = 0) st (r : State.replica) (w : Wire.write_item) =
  let applied = apply_write ~ts r w in
  if w.Wire.ts = 0 && ts = 0 then floor_past_reads st r;
  if applied && w.Wire.alloc_op = Wire.Alloc_clear && r.State.role = State.Primary then
    Allocmgr.release_slot r ~off:w.Wire.addr.Addr.offset

(* A snapshot read at timestamp [ts] (snapshot protocol only). *)
type snap_read =
  | Snap_value of { version : int; value : Bytes.t; allocated : bool; from_chain : bool }
  | Snap_locked
  | Snap_none
  | Snap_below_floor

let read_snapshot (r : State.replica) ~off ~len ~ts =
  match r.State.vc with
  | None -> invalid_arg "Objmem.read_snapshot: replica has no version chain"
  | Some vc ->
      let h = header r ~off in
      let head_ts = Verchain.head_ts vc ~off in
      if head_ts <= ts then
        (* the in-memory head is inside the snapshot — unless it is locked,
           in which case a write with an unknown timestamp (possibly <= ts)
           is about to land and the reader must wait it out *)
        if Obj_layout.is_locked h then Snap_locked
        else
          Snap_value
            {
              version = Obj_layout.version h;
              value = Obj_layout.read_data r.mem ~off ~len;
              allocated = Obj_layout.is_allocated h;
              from_chain = false;
            }
      else
        (* head too new: serve from the chain (lock state is irrelevant —
           a pending write's timestamp exceeds the head's, so > ts) *)
        match Verchain.find vc ~off ~ts with
        | Some (version, value, allocated) ->
            Snap_value { version; value; allocated; from_chain = true }
        | None -> if Verchain.floor vc <= ts then Snap_none else Snap_below_floor

(* Recovery locking (§5.3 step 4): lock the object if it is still at the
   version the recovering transaction observed. Returns true when the
   transaction holds the lock afterwards (newly taken, or taken earlier by
   normal LOCK processing — both belong to this transaction). *)
let recovery_lock (r : State.replica) (w : Wire.write_item) =
  let off = w.addr.Addr.offset in
  let h = header r ~off in
  if Obj_layout.version h <> w.version then false
  else if Obj_layout.is_locked h then true
  else begin
    Obj_layout.set r.mem ~off (Obj_layout.with_locked h true);
    true
  end

let validate_version (r : State.replica) ~off ~version =
  let h = header r ~off in
  (not (Obj_layout.is_locked h)) && Obj_layout.version h = version
