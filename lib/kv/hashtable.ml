open Farm_sim
open Farm_core

(* The FaRM hash table ([16], used for all unordered indexes in §6.2).

   A fixed array of bucket objects, each holding a handful of fixed-size
   entries plus an overflow pointer to a chained bucket. Buckets are spread
   round-robin across the table's regions, so a partitioned table (TATP by
   subscriber, TPC-C by warehouse) keeps a key's bucket co-located with the
   rest of its partition.

   Point lookups normally touch one bucket object: a single one-sided RDMA
   read on the lock-free path.

   Bucket layout (data bytes, after the object header):
     count stored implicitly per entry:
     entry[i]  at  i * entry_size:    used(1) | key(ksize) | value(vsize)
     overflow  at  slots * entry_size: encoded address (8)              *)

type t = {
  buckets : Addr.t array;
  regions : int array;  (* the regions the table was created over *)
  ksize : int;
  vsize : int;
  slots : int;
  partitions : int;  (* 1 = unpartitioned *)
  partition_of : Bytes.t -> int;  (* key -> partition *)
}

let entry_size t = 1 + t.ksize + t.vsize
let bucket_data_size t = (t.slots * entry_size t) + 8

let bucket_of t key =
  if t.partitions <= 1 then Codec.fnv1a key mod Array.length t.buckets
  else begin
    (* partitioned tables keep a key's bucket in its partition's regions
       (TPC-C warehouse co-partitioning, §6.2) *)
    let per = Array.length t.buckets / t.partitions in
    let p = t.partition_of key mod t.partitions in
    (p * per) + (Codec.fnv1a key mod per)
  end

(* {1 Bucket entries, read in place} *)

let entry_used data ~esz i = Bytes.get data (i * esz) <> '\000'

let entry_value t data ~esz i = Bytes.sub data ((i * esz) + 1 + t.ksize) t.vsize

(* Whether the [n] bytes of [data] from [off] equal [key]'s from [j]. *)
let rec bytes_match data off key j n =
  j >= n || (Bytes.get data (off + j) = Bytes.get key j && bytes_match data off key (j + 1) n)

(* Whether entry [i]'s key bytes equal [key], compared where they lie. *)
let key_matches t data ~esz i key = bytes_match data ((i * esz) + 1) key 0 t.ksize

let set_entry t data ~esz i ~key ~value =
  Bytes.set data (i * esz) '\001';
  Bytes.blit key 0 data ((i * esz) + 1) t.ksize;
  Bytes.blit value 0 data ((i * esz) + 1 + t.ksize) t.vsize

let clear_entry data ~esz i = Bytes.set data (i * esz) '\000'

let overflow_of t data = Codec.get_addr data (t.slots * entry_size t)

let rec find_from t data ~esz key i =
  if i >= t.slots then None
  else if entry_used data ~esz i && key_matches t data ~esz i key then Some i
  else find_from t data ~esz key (i + 1)

let find_in_bucket t data key = find_from t data ~esz:(entry_size t) key 0

let rec free_from t data ~esz i =
  if i >= t.slots then None
  else if entry_used data ~esz i then free_from t data ~esz (i + 1)
  else Some i

let free_slot t data = free_from t data ~esz:(entry_size t) 0

(* Keys and values padded or cut to the table's sizes; one already the
   right size is used as is, since it is only read. *)
let fit size b =
  if Bytes.length b = size then b
  else begin
    let r = Bytes.make size '\000' in
    Bytes.blit b 0 r 0 (min (Bytes.length b) size);
    r
  end

let norm_key t key = fit t.ksize key
let norm_value t value = fit t.vsize value

(* {1 Creation} *)

(* The pure step of [create]: the table, each bucket's region, and each
   bucket's chain contents. With [partitions] > 1 the bucket array is split
   into contiguous partition ranges, each placed in the region
   [regions.(partition mod |regions|)].

   [rows] are laid out exactly as sequential [insert]s into the empty table
   would leave them: each bucket holds its distinct keys in first-insertion
   order, a repeated key keeps its slot and takes the later value, and every
   [slots] entries start a chained bucket. Without [rows] every bucket is
   zeroed (all slots free). *)
let plan ~regions ~buckets ~ksize ~vsize ~slots ~partitions ~partition_of rows =
  if buckets <= 0 || Array.length regions = 0 then invalid_arg "Hashtable.create";
  let buckets =
    if partitions > 1 then (max 1 (buckets / partitions)) * partitions else buckets
  in
  let t =
    {
      buckets = Array.make buckets (Addr.make ~region:0 ~offset:0);
      regions;
      ksize;
      vsize;
      slots;
      partitions;
      partition_of;
    }
  in
  let region_of_bucket b =
    if partitions <= 1 then regions.(b mod Array.length regions)
    else begin
      let per = buckets / partitions in
      regions.(b / per mod Array.length regions)
    end
  in
  (* each non-empty bucket's entries, newest first (memory follows the
     rows, not the bucket count); finding a repeated key scans the bucket,
     as [insert] scans the chain *)
  let entries = Int_tbl.create (List.length rows) in
  let entries_of b = Option.value (Int_tbl.find_opt entries b) ~default:[] in
  List.iter
    (fun (key, value) ->
      let key = norm_key t key and value = norm_value t value in
      let b = bucket_of t key in
      let es = entries_of b in
      match List.find_opt (fun (k, _) -> Bytes.equal k key) es with
      | Some (_, v) -> v := value
      | None -> Int_tbl.replace entries b ((key, ref value) :: es))
    rows;
  let size = bucket_data_size t in
  let esz = entry_size t in
  (* bucket [b]'s chain: fresh data for each chained bucket, head first *)
  let chain_data b =
    let es = Array.of_list (List.rev (entries_of b)) in
    Array.init
      (max 1 ((Array.length es + slots - 1) / slots))
      (fun j ->
        let data = Bytes.make size '\000' in
        for i = 0 to min slots (Array.length es - (j * slots)) - 1 do
          let key, value = es.((j * slots) + i) in
          set_entry t data ~esz i ~key ~value:!value
        done;
        data)
  in
  (t, region_of_bucket, chain_data)

(* [l] without repeats, in first-appearance order *)
let distinct l =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* Buckets per build transaction. The build runs where the allocator's
   free lists are (§3, §5.5). A region's buckets go in ascending order,
   each head bucket followed by its chain, each chained bucket next to the
   one before it as [insert] places it: the allocation sequence that
   building every bucket in ascending order from one machine gives the
   region, so each bucket lands at the same offset either way. *)
let batch = 64

let create cluster ~regions ~buckets ~ksize ~vsize ?(slots = 6) ?(partitions = 1)
    ?(partition_of = fun _ -> 0) ?(rows = []) () =
  let t, region_of_bucket, chain_data =
    plan ~regions ~buckets ~ksize ~vsize ~slots ~partitions ~partition_of rows
  in
  let size = bucket_data_size t and overflow_at = slots * entry_size t in
  let write_bucket tx rid b =
    let chain = chain_data b in
    let rec write_chain addr j =
      if j + 1 < Array.length chain then begin
        let next = Txn.alloc tx ~size ~near:addr () in
        Codec.set_addr chain.(j) overflow_at (Some next);
        write_chain next (j + 1)
      end;
      Txn.write tx addr chain.(j)
    in
    let head = Txn.alloc tx ~size ~region:rid () in
    write_chain head 0;
    t.buckets.(b) <- head
  in
  (* each region's buckets in ascending order, grouped in one pass *)
  let buckets_of = Int_tbl.create (Array.length regions) in
  for b = Array.length t.buckets - 1 downto 0 do
    let rid = region_of_bucket b in
    Int_tbl.replace buckets_of rid
      (b :: Option.value (Int_tbl.find_opt buckets_of rid) ~default:[])
  done;
  let build_region st rid =
    let bs = Array.of_list (Option.value (Int_tbl.find_opt buckets_of rid) ~default:[]) in
    let rec from lo =
      if lo < Array.length bs then begin
        let hi = min (Array.length bs) (lo + batch) in
        (match
           Api.run_retry st ~thread:0 (fun tx ->
               for i = lo to hi - 1 do
                 write_bucket tx rid bs.(i)
               done)
         with
        | Ok () -> ()
        | Error e -> Fmt.failwith "Hashtable.create: %a" Txn.pp_abort e);
        from hi
      end
    in
    from 0
  in
  let primary_of rid =
    match
      List.find_opt
        (fun (m, (rep : State.replica)) ->
          rep.State.role = State.Primary && (Cluster.machine cluster m).State.alive)
        (Cluster.replicas_of cluster rid)
    with
    | Some (m, _) -> m
    | None -> Fmt.failwith "Hashtable.create: region %d has no live primary" rid
  in
  let placed = List.map (fun rid -> (rid, primary_of rid)) (distinct (Array.to_list regions)) in
  let build_at m st = List.iter (fun (rid, p) -> if p = m then build_region st rid) placed in
  ignore
    (Cluster.run_on_all cluster
       (List.map (fun m -> (m, build_at m)) (distinct (List.map snd placed))));
  t

(* {1 Transactional operations}

   Buckets are scanned in the transaction's own buffers ([Txn.view]) and
   edited in its write buffers ([Txn.modify]): each bucket a transaction
   changes is copied once, from the data as read. *)

let rec lookup_from tx t addr key =
  let data = Txn.view tx addr ~len:(bucket_data_size t) in
  match find_in_bucket t data key with
  | Some i -> Some (entry_value t data ~esz:(entry_size t) i)
  | None -> (
      match overflow_of t data with
      | Some next -> lookup_from tx t next key
      | None -> None)

let lookup tx t key =
  let key = norm_key t key in
  lookup_from tx t t.buckets.(bucket_of t key) key

(* Insert or update. Follows the overflow chain; allocates a chained
   bucket co-located with the head bucket when everything is full.

   The whole chain is searched for the key before a free slot is taken:
   deletes can free slots in earlier buckets while the key still lives in a
   chained one, and grabbing such a slot would shadow the old entry with a
   duplicate that a later delete resurrects. *)
let insert tx t key value =
  let key = norm_key t key in
  let value = norm_value t value in
  let esz = entry_size t in
  let len = bucket_data_size t in
  let set addr i = set_entry t (Txn.modify tx addr ~len) ~esz i ~key ~value in
  let rec go addr free =
    let data = Txn.view tx addr ~len in
    match find_in_bucket t data key with
    | Some i -> set addr i
    | None -> (
        let free =
          match free with
          | Some _ -> free
          | None -> Option.map (fun i -> (addr, i)) (free_slot t data)
        in
        match overflow_of t data with
        | Some next -> go next free
        | None -> (
            match free with
            | Some (faddr, i) -> set faddr i
            | None ->
                let next = Txn.alloc tx ~size:len ~near:addr () in
                set next 0;
                Codec.set_addr (Txn.modify tx addr ~len) (t.slots * esz) (Some next)))
  in
  go t.buckets.(bucket_of t key) None

let delete tx t key =
  let key = norm_key t key in
  let esz = entry_size t in
  let len = bucket_data_size t in
  let rec go addr =
    let data = Txn.view tx addr ~len in
    match find_in_bucket t data key with
    | Some i ->
        clear_entry (Txn.modify tx addr ~len) ~esz i;
        true
    | None -> (
        match overflow_of t data with Some next -> go next | None -> false)
  in
  go t.buckets.(bucket_of t key)

(* {1 Lock-free lookups (§3, §6.2)} — single-object read-only transactions;
   one RDMA read per (rarely chained) bucket. *)

let lookup_lockfree st t key =
  let key = norm_key t key in
  let rec go addr =
    match Api.read_lockfree st addr ~len:(bucket_data_size t) with
    | None -> None
    | Some data -> (
        match find_in_bucket t data key with
        | Some i -> Some (entry_value t data ~esz:(entry_size t) i)
        | None -> (
            match overflow_of t data with Some next -> go next | None -> None))
  in
  go t.buckets.(bucket_of t key)
