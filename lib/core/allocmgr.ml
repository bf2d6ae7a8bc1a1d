open Farm_sim

(* The FaRM allocator (§3, §5.5).

   Regions are split into blocks used as slabs for small objects. The block
   header (the object size used in the block) is replicated to backups when
   a block is allocated, because it is needed for data recovery; slab free
   lists are kept only at the primary and rebuilt by scanning the region
   after a failure, paced to limit impact on the foreground. *)

(* Slot size for a data payload: header plus data, rounded up to a
   multiple of 16 bytes. Every slot offset in a block is then a multiple
   of 16, so headers stay 8-byte aligned, and no object pads by more than
   15 bytes. A slot need not divide the block: the last [block_size mod
   slot] bytes of a block stay unused, and every scan of a block counts
   [block_size / slot] slots, so none crosses the block's end. *)
let slot_size data_size = (Obj_layout.header_size + data_size + 15) land lnot 15

let blocks_per_region st = st.State.params.Params.region_size / Params.block_size

let free_list (r : State.replica) slot =
  match Hashtbl.find_opt r.free_lists slot with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace r.free_lists slot l;
      l

(* Push an offset onto its slab's free list, at most once: the [free_set]
   membership mirror makes double frees (an abort-return racing the
   recovery scan, a duplicated hint) harmless. Handing one slot to two
   transactions corrupts whichever commits second. *)
let push_free (r : State.replica) ~slot ~off =
  if not (Hashtbl.mem r.free_set off) then begin
    Hashtbl.replace r.free_set off ();
    let l = free_list r slot in
    l := off :: !l
  end

(* Carve a fresh block into a slab of [slot]-sized cells and replicate its
   header to the backups. Returns false when the region is full. *)
let alloc_block st (r : State.replica) ~slot =
  if r.next_free_block >= blocks_per_region st then false
  else begin
    let block = r.next_free_block in
    r.next_free_block <- block + 1;
    Hashtbl.replace r.block_headers block slot;
    let base = block * Params.block_size in
    let count = Params.block_size / slot in
    for i = count - 1 downto 0 do
      push_free r ~slot ~off:(base + (i * slot))
    done;
    (match State.region_info st r.rid with
    | Some info ->
        List.iter
          (fun b ->
            Comms.send st ~dst:b (Wire.Block_header { rid = r.rid; block; obj_size = slot }))
          info.Wire.backups
    | None -> ());
    true
  end

(* Allocate a slot at the primary. The allocation is tentative: the
   object's allocation bit is only set when the transaction commits, so a
   crash before commit simply loses the tentative slot and the recovery
   scan reclaims it. Returns the address and the slot's current version
   (the CAS target for the eventual LOCK record).

   Allocation works even while the free lists are being rebuilt after a
   promotion (§5.5): every pushed offset is individually sound (verified by
   the scan, returned by an abort, or carved from a fresh block), and the
   object-version CAS at LOCK time resolves the rare double-handout races
   with pre-failure tentative holders. *)
let alloc_obj_local st (r : State.replica) ~size =
  let slot = slot_size size in
  let l = free_list r slot in
  let rec pop () =
    match !l with
    | off :: rest ->
        l := rest;
        Hashtbl.remove r.free_set off;
        let h = Obj_layout.get r.mem ~off in
        if Obj_layout.is_allocated h || Obj_layout.is_locked h then pop ()
        else Some (Addr.make ~region:r.rid ~offset:off, Obj_layout.version h)
    | [] -> if alloc_block st r ~slot then pop () else None
  in
  pop ()

(* Return a slot to the free list (when a committed free is applied at the
   primary, or when an aborted allocation is returned). [push_free]'s
   dedup makes this safe even while the recovery scan runs. *)
let release_slot (r : State.replica) ~off =
  let block = off / Params.block_size in
  match Hashtbl.find_opt r.block_headers block with
  | None -> ()
  | Some slot -> push_free r ~slot ~off

(* Allocator state recovery (§5.5): a new primary rebuilds the slab free
   lists by scanning the region's objects, [alloc_scan_batch] objects every
   [alloc_scan_interval], starting only after ALL-REGIONS-ACTIVE. *)
let recover_free_lists st (r : State.replica) ~on_done =
  r.free_lists_valid <- false;
  Hashtbl.reset r.free_lists;
  Hashtbl.reset r.free_set;
  (* next_free_block must cover every block ever carved *)
  r.next_free_block <- Hashtbl.fold (fun b _ acc -> max acc (b + 1)) r.block_headers 0;
  let blocks = List.sort compare (Hashtbl.fold (fun b s acc -> (b, s) :: acc) r.block_headers []) in
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      let scanned = ref 0 in
      let pace () =
        incr scanned;
        if !scanned mod Params.alloc_scan_batch = 0 then
          Proc.sleep Params.alloc_scan_interval
      in
      List.iter
        (fun (block, slot) ->
          let base = block * Params.block_size in
          let count = Params.block_size / slot in
          for i = 0 to count - 1 do
            let off = base + (i * slot) in
            let h = Obj_layout.get r.mem ~off in
            if not (Obj_layout.is_allocated h || Obj_layout.is_locked h) then
              push_free r ~slot ~off;
            pace ()
          done)
        blocks;
      r.free_lists_valid <- true;
      on_done ())

(* A new primary sends its block headers to all backups immediately after
   NEW-CONFIG-COMMIT, avoiding inconsistencies when the old primary failed
   while replicating a header (§5.5). *)
let sync_block_headers st (r : State.replica) =
  match State.region_info st r.rid with
  | None -> ()
  | Some info ->
      let headers = Hashtbl.fold (fun b s acc -> (b, s) :: acc) r.block_headers [] in
      List.iter
        (fun b -> Comms.send st ~dst:b (Wire.Block_headers_sync { rid = r.rid; headers }))
        info.Wire.backups
