open Farm_sim


(* Transaction execution phase (§3, §4).

   During execution, reads go to primaries (one-sided RDMA if remote, local
   memory access otherwise) and writes are buffered at the coordinator.
   FaRM guarantees atomic reads of individual committed objects and defers
   all cross-object consistency checks to commit-time validation; the
   execute phase therefore only records the version of everything it
   read. *)

type abort_reason =
  | Conflict  (* lock or validation failure: concurrent writer won *)
  | Not_allocated  (* the object was freed *)
  | Out_of_space
  | Failed  (* unresolvable machine failures; recovery aborted the tx *)
  | Explicit  (* application called abort *)

let pp_abort ppf r =
  Fmt.string ppf
    (match r with
    | Conflict -> "conflict"
    | Not_allocated -> "not-allocated"
    | Out_of_space -> "out-of-space"
    | Failed -> "failed"
    | Explicit -> "explicit")

exception Abort of abort_reason

(* The read and write sets: parallel arrays sorted by packed address
   ([Addr.pack]), the first [nreads]/[nwrites] slots live. They start empty
   and double as they fill, so a transaction allocates nothing for a set it
   never uses, nothing per entry beyond the buffered value, and commit
   visits both in address order with int comparisons only. *)
type t = {
  st : State.t;
  thread : int;
  t_started : Time.t;
  span : Farm_obs.Obs.Span.t;  (* opened at [t_started], in P_execute *)
  mutable nreads : int;
  mutable rkeys : int array;
  mutable rvers : int array;  (* version observed *)
  mutable rvals : Bytes.t array;  (* data as read; never mutated *)
  mutable nwrites : int;
  mutable wkeys : int array;
  mutable wvers : int array;  (* version the write locks at *)
  mutable wvals : Bytes.t array;  (* buffered new data, owned by the set *)
  mutable wallocs : Wire.alloc_op array;
  mutable allocated : (Addr.t * int) list;  (* tentative slots, for abort *)
  mutable finished : bool;
  (* snapshot protocol: the transaction's read timestamp, drawn from the
     local clock's lower bound at begin and registered in
     [State.read_ts_active] until the transaction settles. -1 in the
     validate-at-commit baseline. *)
  mutable read_ts : int;
}

let reason_index = function
  | Conflict -> 0
  | Not_allocated -> 1
  | Out_of_space -> 2
  | Failed -> 3
  | Explicit -> 4

let begin_tx st ~thread =
  Cpu.exec st.State.cpu ~cost:Params.cpu_tx_begin;
  (* draw and register the read timestamp in one step — no yield between,
     so the local watermark can never pass a drawn-but-unregistered ts *)
  let read_ts =
    match st.State.params.Params.protocol with
    | Params.Validate_at_commit -> -1
    | Params.Snapshot ->
        let r = Clock.lo st.State.clock in
        State.register_read_ts st r;
        r
  in
  {
    st;
    thread;
    t_started = State.now st;
    span = Farm_obs.Obs.Span.start ~tid:thread st.State.obs;
    nreads = 0;
    rkeys = [||];
    rvers = [||];
    rvals = [||];
    nwrites = 0;
    wkeys = [||];
    wvers = [||];
    wvals = [||];
    wallocs = [||];
    allocated = [];
    finished = false;
    read_ts;
  }

(* Drop the transaction's claim on its read timestamp (commit or abort —
   whichever settles it first); idempotent. *)
let release_read_ts tx =
  if tx.read_ts >= 0 then begin
    State.release_read_ts tx.st tx.read_ts;
    tx.read_ts <- -1
  end

(* {1 Region mapping} *)

let rec ensure_mapping st rid ~retries =
  match State.region_info st rid with
  | Some info -> Some info
  | None ->
      if retries <= 0 then None
      else begin
        let cm = st.State.config.Config.cm in
        match Comms.call st ~dst:cm ~timeout:(Time.ms 10) (Wire.Fetch_mapping { rid }) with
        | Ok (Wire.Mapping_reply { info = Some info }) ->
            Int_tbl.replace st.State.region_map rid info;
            Some info
        | Ok _ | Error _ ->
            Proc.sleep (Time.ms 1);
            Proc.check_cancelled ();
            ensure_mapping st rid ~retries:(retries - 1)
      end

let invalidate_mapping st rid = Int_tbl.remove st.State.region_map rid

(* {1 Object reads} *)

(* One-sided (or local) read of an object's header and [len] data bytes
   from the primary of its region. Returns [Ok None] when the target is not
   (or no longer) the active primary. *)
let read_at ?span st ~dst ~(addr : Addr.t) ~len : ((int64 * bytes) option, Farm_net.Fabric.error) result =
  if dst = st.State.id then begin
    Cpu.exec st.State.cpu ~cost:Params.cpu_local_read;
    match State.replica st addr.Addr.region with
    | Some rep when rep.State.role = State.Primary ->
        State.await_active rep;
        Ok (Some (Objmem.read_object rep ~off:addr.Addr.offset ~len))
    | _ -> Ok None
  end
  else
    Farm_net.Fabric.one_sided_read ?span st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Obj_layout.header_size + len)
      (fun () ->
        match State.peer st dst with
        | None -> None
        | Some pst -> (
            match State.replica pst addr.Addr.region with
            | Some rep when rep.State.role = State.Primary && rep.State.active ->
                Some (Objmem.read_object rep ~off:addr.Addr.offset ~len)
            | _ -> None))

(* Retry limits of one read: failed or refused reads, and reads that
   found the object locked by a committing writer. *)
let max_read_failures = 100
let max_read_locked = 400

(* Versioned read with retries across lock conflicts and reconfiguration:
   returns the object's committed version and data. A top-level loop, not
   a local closure, which ocamlopt would allocate on every read. *)
let rec read_versioned_from span st ~(addr : Addr.t) ~len ~failures ~locked =
  Proc.check_cancelled ();
  if failures > max_read_failures then raise (Abort Failed)
  else if locked > max_read_locked then raise (Abort Conflict)
  else
    match ensure_mapping st addr.Addr.region ~retries:5 with
    | None -> raise (Abort Failed)
    | Some info -> (
        match read_at ?span st ~dst:info.Wire.primary ~addr ~len with
        | Error (`Unreachable | `Timeout) ->
            invalidate_mapping st addr.Addr.region;
            Proc.sleep (Time.us 500);
            read_versioned_from span st ~addr ~len ~failures:(failures + 1) ~locked
        | Ok None ->
            invalidate_mapping st addr.Addr.region;
            Proc.sleep (Time.us 200);
            read_versioned_from span st ~addr ~len ~failures:(failures + 1) ~locked
        | Ok (Some (header, data)) ->
            if Obj_layout.is_locked header then begin
              (* being committed right now; wait for the writer *)
              Proc.sleep (Time.us 30);
              read_versioned_from span st ~addr ~len ~failures ~locked:(locked + 1)
            end
            else if not (Obj_layout.is_allocated header) then raise (Abort Not_allocated)
            else (Obj_layout.version header, data))

let read_versioned ?span st ~addr ~len =
  read_versioned_from span st ~addr ~len ~failures:0 ~locked:0

(* {1 Snapshot reads (snapshot protocol)}

   A timestamp-ordered one-sided read: serve the newest version with
   commit timestamp <= the transaction's read timestamp, from the region
   head when it is old enough, from the primary's version chain otherwise.
   No version is recorded for validation wars — read-only transactions
   need none, and read-write transactions validate the served version at
   commit exactly like the baseline (a chain-served version can never
   still be current, so such reads abort conservatively). *)

let snap_read_at ?span st ~dst ~(addr : Addr.t) ~len ~ts :
    (Objmem.snap_read option, Farm_net.Fabric.error) result =
  if dst = st.State.id then begin
    Cpu.exec st.State.cpu ~cost:Params.cpu_local_read;
    match State.replica st addr.Addr.region with
    | Some rep when rep.State.role = State.Primary ->
        State.await_active rep;
        Ok (Some (Objmem.read_snapshot rep ~off:addr.Addr.offset ~len ~ts))
    | _ -> Ok None
  end
  else
    Farm_net.Fabric.one_sided_read ?span st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Obj_layout.header_size + len)
      (fun () ->
        match State.peer st dst with
        | None -> None
        | Some pst -> (
            match State.replica pst addr.Addr.region with
            | Some rep when rep.State.role = State.Primary && rep.State.active ->
                Some (Objmem.read_snapshot rep ~off:addr.Addr.offset ~len ~ts)
            | _ -> None))

let rec read_snapshot_from span st ~(addr : Addr.t) ~len ~ts ~failures ~locked =
  Proc.check_cancelled ();
  if failures > max_read_failures then raise (Abort Failed)
  else if locked > max_read_locked then raise (Abort Conflict)
  else
    match ensure_mapping st addr.Addr.region ~retries:5 with
    | None -> raise (Abort Failed)
    | Some info -> (
        match snap_read_at ?span st ~dst:info.Wire.primary ~addr ~len ~ts with
        | Error (`Unreachable | `Timeout) ->
            invalidate_mapping st addr.Addr.region;
            Proc.sleep (Time.us 500);
            read_snapshot_from span st ~addr ~len ~ts ~failures:(failures + 1) ~locked
        | Ok None ->
            invalidate_mapping st addr.Addr.region;
            Proc.sleep (Time.us 200);
            read_snapshot_from span st ~addr ~len ~ts ~failures:(failures + 1) ~locked
        | Ok (Some (Objmem.Snap_locked)) ->
            (* the head is inside the snapshot but a write with an
               unknown timestamp is landing; wait for the writer *)
            Proc.sleep (Time.us 30);
            read_snapshot_from span st ~addr ~len ~ts ~failures ~locked:(locked + 1)
        | Ok (Some (Objmem.Snap_value { version; value; allocated; from_chain })) ->
            Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_read;
            if from_chain then
              Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_chain_read;
            if not allocated then raise (Abort Not_allocated) else (version, value)
        | Ok (Some Objmem.Snap_none) ->
            Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_read;
            raise (Abort Not_allocated)
        | Ok (Some Objmem.Snap_below_floor) ->
            (* history truncated past our snapshot (only possible across
               failures/re-replication): retry at a fresh timestamp *)
            raise (Abort Conflict))

let read_snapshot_versioned ?span st ~addr ~len ~ts =
  read_snapshot_from span st ~addr ~len ~ts ~failures:0 ~locked:0

(* {1 Read and write sets} *)

(* Index of [key] among the first [n] (ascending) keys, or [-(i + 1)] when
   absent, [i] being where it belongs. *)
let rec search_between (keys : int array) (key : int) lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let k = Array.unsafe_get keys mid in
    if k < key then search_between keys key (mid + 1) hi
    else if k > key then search_between keys key lo mid
    else mid

let search keys n key = search_between keys key 0 n

(* [a] with [v] inserted at [i] among its first [n] live slots, in place
   or, when full, in a copy twice the size. There is one copy per element
   type, so the compiler knows each array's kind: slots are stored without
   a float check, a first array of two comes from a literal, and only
   growing past two calls into the runtime. [grow] fills the copy with an
   old or immediate value: past 256 words the array is made in the major
   heap, and [Array.make] with a young fill value first forces a minor
   collection. *)
let grow a n fill =
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let insert_int (a : int array) n i v =
  let a = if n < Array.length a then a else if n = 0 then [| v; v |] else grow a n v in
  for j = n downto i + 1 do
    Array.unsafe_set a j (Array.unsafe_get a (j - 1))
  done;
  a.(i) <- v;
  a

let insert_bytes (a : Bytes.t array) n i v =
  let a = if n < Array.length a then a else if n = 0 then [| v; v |] else grow a n Bytes.empty in
  for j = n downto i + 1 do
    Array.unsafe_set a j (Array.unsafe_get a (j - 1))
  done;
  a.(i) <- v;
  a

let insert_alloc (a : Wire.alloc_op array) n i v =
  let a = if n < Array.length a then a else if n = 0 then [| v; v |] else grow a n v in
  for j = n downto i + 1 do
    Array.unsafe_set a j (Array.unsafe_get a (j - 1))
  done;
  a.(i) <- v;
  a

let add_read tx i key version data =
  let n = tx.nreads in
  tx.rkeys <- insert_int tx.rkeys n i key;
  tx.rvers <- insert_int tx.rvers n i version;
  tx.rvals <- insert_bytes tx.rvals n i data;
  tx.nreads <- n + 1

let add_write tx key version data alloc =
  let n = tx.nwrites in
  let i = -(search tx.wkeys n key + 1) in
  tx.wkeys <- insert_int tx.wkeys n i key;
  tx.wvers <- insert_int tx.wvers n i version;
  tx.wvals <- insert_bytes tx.wvals n i data;
  tx.wallocs <- insert_alloc tx.wallocs n i alloc;
  tx.nwrites <- n + 1

let remove_write tx i =
  let n = tx.nwrites - 1 in
  let close a = Array.blit a (i + 1) a i (n - i) in
  close tx.wkeys;
  close tx.wvers;
  close tx.wvals;
  close tx.wallocs;
  tx.wvals.(n) <- Bytes.empty;
  tx.nwrites <- n

let write_index tx addr = search tx.wkeys tx.nwrites (Addr.pack addr)
let written tx addr = write_index tx addr >= 0

(* {1 Transaction API} *)

(* Index of [addr] in the read set, reading it first on a miss. *)
let read_index tx (addr : Addr.t) ~len =
  let key = Addr.pack addr in
  let i = search tx.rkeys tx.nreads key in
  if i >= 0 then i
  else begin
    let version, data =
      if tx.read_ts >= 0 then
        read_snapshot_versioned ~span:tx.span tx.st ~addr ~len ~ts:tx.read_ts
      else read_versioned ~span:tx.span tx.st ~addr ~len
    in
    Farm_obs.Obs.heat_access tx.st.State.obs ~region:addr.Addr.region;
    (* the read above may have yielded, but only this transaction's own
       process touches its sets, so [i] still marks the slot *)
    add_read tx (-(i + 1)) key version data;
    -(i + 1)
  end

let view tx (addr : Addr.t) ~len =
  let wi = write_index tx addr in
  if wi >= 0 then tx.wvals.(wi) else tx.rvals.(read_index tx addr ~len)

let read tx addr ~len =
  let b = view tx addr ~len in
  Bytes.sub b 0 (min len (Bytes.length b))

let modify tx (addr : Addr.t) ~len =
  let wi = write_index tx addr in
  if wi >= 0 then tx.wvals.(wi)
  else begin
    let ri = read_index tx addr ~len in
    let r = tx.rvals.(ri) in
    let data = Bytes.sub r 0 (min len (Bytes.length r)) in
    add_write tx (Addr.pack addr) tx.rvers.(ri) data Wire.Alloc_none;
    data
  end

(* The version a write must lock at: the version observed by this
   transaction, fetching it if the object was not read first. A blind
   write deliberately observes the CURRENT header version even in
   snapshot mode — locking at the snapshot's (possibly archived) version
   would make the write abort forever once the head moves. *)
let observed_version tx (addr : Addr.t) =
  let i = search tx.rkeys tx.nreads (Addr.pack addr) in
  if i >= 0 then tx.rvers.(i)
  else
    let version, _ = read_versioned ~span:tx.span tx.st ~addr ~len:0 in
    version

let write tx (addr : Addr.t) data =
  let wi = write_index tx addr in
  if wi >= 0 then tx.wvals.(wi) <- Bytes.copy data
  else begin
    let version = observed_version tx addr in
    add_write tx (Addr.pack addr) version (Bytes.copy data) Wire.Alloc_none
  end

(* Allocate an object. The slot is tentatively taken from the primary's
   slab free list during execution; its allocation bit is set only at
   commit, so aborts and coordinator crashes lose nothing (§5.5). *)
let alloc tx ~size ?near ?region () =
  let st = tx.st in
  let rid =
    match (near, region) with
    | Some (a : Addr.t), _ -> Some a.Addr.region
    | None, Some rid -> Some rid
    | None, None ->
        (* prefer a region whose primary is this machine *)
        let local =
          Int_tbl.fold
            (fun rid info acc ->
              if info.Wire.primary = st.State.id then rid :: acc else acc)
            st.State.region_map []
        in
        (match local with
        | _ :: _ -> Some (List.nth local (Rng.int st.State.rng (List.length local)))
        | [] ->
            let all = Int_tbl.fold (fun rid _ acc -> rid :: acc) st.State.region_map [] in
            (match all with
            | [] -> None
            | _ -> Some (List.nth all (Rng.int st.State.rng (List.length all)))))
  in
  match rid with
  | None -> raise (Abort Out_of_space)
  | Some rid -> (
      (* follow this machine's spill chain: overflow regions allocated when
         earlier ones filled up *)
      let rec resolve_spill rid hops =
        if hops > 16 then rid
        else
          match Int_tbl.find_opt st.State.spill rid with
          | Some next -> resolve_spill next (hops + 1)
          | None -> rid
      in
      let try_alloc rid =
        match ensure_mapping st rid ~retries:5 with
        | None -> None
        | Some info ->
            if info.Wire.primary = st.State.id then begin
              match State.replica st rid with
              | Some rep ->
                  State.await_active rep;
                  Allocmgr.alloc_obj_local st rep ~size
              | None -> None
            end
            else begin
              match
                Comms.call st ~dst:info.Wire.primary ~timeout:(Time.ms 10)
                  (Wire.Alloc_obj_req { rid; size })
              with
              | Ok (Wire.Alloc_obj_reply { addr = Some addr; version }) -> Some (addr, version)
              | Ok _ | Error _ -> None
            end
      in
      let rid = resolve_spill rid 0 in
      let slot =
        match try_alloc rid with
        | Some s -> Some s
        | None -> (
            (* the region is full: transparently allocate a co-located
               overflow region through the CM (§3) and spill into it *)
            match Int_tbl.find_opt st.State.spill rid with
            | Some next -> try_alloc next
            | None -> (
                let cm = st.State.config.Config.cm in
                match
                  Comms.call st ~dst:cm ~timeout:(Time.ms 50)
                    (Wire.Alloc_region_req { locality = Some rid })
                with
                | Ok (Wire.Alloc_region_reply { info = Some info }) ->
                    Int_tbl.replace st.State.region_map info.Wire.rid info;
                    Int_tbl.replace st.State.spill rid info.Wire.rid;
                    try_alloc info.Wire.rid
                | Ok _ | Error _ -> None))
      in
      match slot with
      | None -> raise (Abort Out_of_space)
      | Some (addr, _) when written tx addr ->
          (* a double-handout race handed this tx the same slot twice
             (possible while allocator recovery races a pre-failure
             tentative holder); treat as a conflict and retry *)
          raise (Abort Conflict)
      | Some (addr, version) ->
          tx.allocated <- (addr, size) :: tx.allocated;
          add_write tx (Addr.pack addr) version (Bytes.make size '\000') Wire.Alloc_set;
          addr)

let free tx (addr : Addr.t) =
  let wi = write_index tx addr in
  if wi >= 0 && tx.wallocs.(wi) = Wire.Alloc_set then begin
    (* allocated by this very transaction: cancel both operations and
       return the tentative slot to its region's primary *)
    remove_write tx wi;
    tx.allocated <- List.filter (fun (a, _) -> not (Addr.equal a addr)) tx.allocated;
    match State.region_info tx.st addr.Addr.region with
    | Some info -> Comms.send tx.st ~dst:info.Wire.primary (Wire.Free_slot_hint { addr })
    | None -> ()
  end
  else if wi >= 0 then begin
    tx.wallocs.(wi) <- Wire.Alloc_clear;
    tx.wvals.(wi) <- Bytes.empty
  end
  else
    let version = observed_version tx addr in
    add_write tx (Addr.pack addr) version Bytes.empty Wire.Alloc_clear

(* Return tentatively allocated slots to their primaries after an abort. *)
let return_allocations tx =
  List.iter
    (fun ((addr : Addr.t), _) ->
      match State.region_info tx.st addr.Addr.region with
      | Some info ->
          if info.Wire.primary = tx.st.State.id then begin
            match State.replica tx.st addr.Addr.region with
            | Some rep -> Allocmgr.release_slot rep ~off:addr.Addr.offset
            | None -> ()
          end
          else Comms.send tx.st ~dst:info.Wire.primary (Wire.Free_slot_hint { addr })
      | None -> ())
    tx.allocated
