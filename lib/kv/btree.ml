open Farm_core

(* The FaRM B-tree (§6.2): integer keys, word-sized values (typically an
   encoded address), fence keys for consistent traversals (as in Minuet),
   and per-machine caching of internal nodes so that a lookup usually needs
   a single RDMA read (the leaf).

   Writes (inserts, deletes, splits) run entirely inside the enclosing FaRM
   transaction with real reads of every node they touch, so OCC versioning
   makes structure modifications strictly serializable. Read-only
   traversals may navigate via cached internal nodes; the leaf's fence keys
   are checked and a mismatch (a split raced the cache) invalidates the
   cache and retries with real reads. Interior nodes are never freed
   (deletes do not rebalance), so stale cached pointers always reach a
   valid node.

   Node layout (data bytes):
     0   kind (0 = leaf, 1 = internal)
     8   nkeys
     16  fence_lo (inclusive)       24  fence_hi (exclusive)
     32  keys[fanout]
     internal: 32+8F children[fanout+1]
     leaf:     32+8F values[fanout], then next-leaf address            *)

type t = {
  root_ptr : Addr.t;  (* object holding the encoded root address *)
  regions : int array;
  fanout : int;
  cache : Bytes.t Farm_sim.Int_tbl.t;  (* [cache_key] -> node *)
}

type node = {
  leaf : bool;
  lo : int;
  hi : int;
  keys : int array;  (* length nkeys *)
  slots : int array;  (* children (nkeys+1) for internal; values (nkeys) for leaf *)
  next : Addr.t option;  (* leaf chain *)
}

let node_data_size t = 32 + (8 * t.fanout) + (8 * (t.fanout + 1)) + 8

let parse t data =
  let leaf = Codec.get_int data 0 = 0 in
  let n = Codec.get_int data 8 in
  if n < 0 || n > t.fanout + 1 then
    Fmt.failwith "Btree.parse: corrupt node (kind=%d nkeys=%d lo=%d hi=%d)"
      (Codec.get_int data 0) n (Codec.get_int data 16) (Codec.get_int data 24);
  let lo = Codec.get_int data 16 and hi = Codec.get_int data 24 in
  let keys = Array.init n (fun i -> Codec.get_int data (32 + (8 * i))) in
  let base = 32 + (8 * t.fanout) in
  let slots =
    if leaf then Array.init n (fun i -> Codec.get_int data (base + (8 * i)))
    else Array.init (n + 1) (fun i -> Codec.get_int data (base + (8 * i)))
  in
  let next = if leaf then Codec.get_addr data (base + (8 * t.fanout)) else None in
  { leaf; lo; hi; keys; slots; next }

let serialize t (nd : node) =
  let data = Bytes.make (node_data_size t) '\000' in
  Codec.set_int data 0 (if nd.leaf then 0 else 1);
  Codec.set_int data 8 (Array.length nd.keys);
  Codec.set_int data 16 nd.lo;
  Codec.set_int data 24 nd.hi;
  Array.iteri (fun i k -> Codec.set_int data (32 + (8 * i)) k) nd.keys;
  let base = 32 + (8 * t.fanout) in
  Array.iteri (fun i v -> Codec.set_int data (base + (8 * i)) v) nd.slots;
  if nd.leaf then Codec.set_addr data (base + (8 * t.fanout)) nd.next;
  data

let create st ~thread ~regions ?(fanout = 14) () =
  if Array.length regions = 0 then invalid_arg "Btree.create";
  let t =
    {
      root_ptr = Addr.make ~region:0 ~offset:0;
      regions;
      fanout;
      cache = Farm_sim.Int_tbl.create 1024;
    }
  in
  let root_ptr =
    match
      Api.run_retry st ~thread (fun tx ->
          let leaf_addr = Txn.alloc tx ~size:(node_data_size t) ~region:regions.(0) () in
          let empty =
            { leaf = true; lo = min_int; hi = max_int; keys = [||]; slots = [||]; next = None }
          in
          Txn.write tx leaf_addr (serialize t empty);
          let rp = Txn.alloc tx ~size:8 ~region:regions.(0) () in
          let b = Bytes.create 8 in
          Codec.set_int b 0 (Codec.encode_addr leaf_addr);
          Txn.write tx rp b;
          rp)
    with
    | Ok rp -> rp
    | Error e -> Fmt.failwith "Btree.create: %a" Txn.pp_abort e
  in
  { t with root_ptr }

let read_root tx t =
  match Codec.get_addr (Txn.view tx t.root_ptr ~len:8) 0 with
  | Some a -> a
  | None -> failwith "Btree: null root"

(* {1 Node cache}

   One table per tree handle, shared by every machine that uses it, so a
   key packs the machine into the low [machine_bits] of the encoded node
   address (region above bit 32, offset below). *)

let machine_bits = 12

let cache_key machine addr =
  if machine lsr machine_bits <> 0 || addr.Addr.region lsr (62 - 32 - machine_bits) <> 0
  then invalid_arg "Btree: machine or region id too large for the node cache";
  (Codec.encode_addr addr lsl machine_bits) lor machine

let key_machine key = key land ((1 lsl machine_bits) - 1)

(* {1 Node words in place}

   Reads walk a node's bytes where they lie; edits that leave the node
   within [fanout] keys shift its words in place, producing exactly the
   bytes [serialize] writes for the edited node (slots past the live keys
   stay zero). Only a split parses the node and serializes its halves. *)

let key_at data i = Codec.get_int data (32 + (8 * i))
let slot_off t i = 32 + (8 * t.fanout) + (8 * i)
let slot_at t data i = Codec.get_int data (slot_off t i)
let is_leaf data = Codec.get_int data 0 = 0
let lo_of data = Codec.get_int data 16
let hi_of data = Codec.get_int data 24
let next_of t data = Codec.get_addr data (slot_off t t.fanout)

(* The key count, checked as [parse] checks it. *)
let nkeys t data =
  let n = Codec.get_int data 8 in
  if n < 0 || n > t.fanout + 1 then
    Fmt.failwith "Btree.parse: corrupt node (kind=%d nkeys=%d lo=%d hi=%d)"
      (Codec.get_int data 0) n (lo_of data) (hi_of data);
  n

(* The first of the [n] keys from [i] on that is >= [key], or [n]. *)
let rec lower_bound_from data n key i =
  if i < n && key_at data i < key then lower_bound_from data n key (i + 1) else i

let lower_bound data n key = lower_bound_from data n key 0

(* The child an internal node routes [key] to: the count of keys <= it. *)
let rec child_index_from data n key i =
  if i < n && key >= key_at data i then child_index_from data n key (i + 1) else i

let child_index data n key = child_index_from data n key 0

let child_at t data i =
  match Codec.decode_addr (slot_at t data i) with
  | Some child -> child
  | None -> failwith "Btree: null child"

(* The value stored under [key] in a leaf. *)
let leaf_find t data key =
  let n = nkeys t data in
  let i = lower_bound data n key in
  if i < n && key_at data i = key then Some (slot_at t data i) else None

(* Insert word [v] at [i] among the [n] words from [off]. *)
let insert_word data ~off ~i ~n v =
  Bytes.blit data (off + (8 * i)) data (off + (8 * (i + 1))) (8 * (n - i));
  Codec.set_int data (off + (8 * i)) v

(* {1 Transactional reads (real reads; populate the cache)} *)

(* The node's bytes, uncopied ([Txn.view]). An internal node is cached
   for lock-free lookups; a buffer this transaction may still edit is
   cached as a copy. Leaves are not cached: a lookup reads its leaf
   anyway. *)
let read_node tx t addr =
  let data = Txn.view tx addr ~len:(node_data_size t) in
  (try ignore (nkeys t data)
   with Failure msg -> Fmt.failwith "%s at %a" msg Addr.pp addr);
  if not (is_leaf data) then
    Farm_sim.Int_tbl.replace t.cache (cache_key tx.Txn.st.State.id addr)
      (if Txn.written tx addr then Bytes.copy data else data);
  data

let rec descend tx t addr key =
  let data = read_node tx t addr in
  if is_leaf data then (addr, data)
  else descend tx t (child_at t data (child_index data (nkeys t data) key)) key

let find tx t key =
  let _, leaf = descend tx t (read_root tx t) key in
  leaf_find t leaf key

(* {1 Inserts with splits} *)

let array_insert a i v =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then v else a.(j - 1))

(* Split a node that [keys]/[slots] overfill: write both halves and return
   the promoted separator and the new right sibling. *)
let split tx t addr (nd : node) keys slots =
  let mid = Array.length keys / 2 in
  let sep = keys.(mid) in
  let right_addr = Txn.alloc tx ~size:(node_data_size t) ~near:addr () in
  let right, left =
    if nd.leaf then
      (* the separator is the right half's first key *)
      ( {
          leaf = true;
          lo = sep;
          hi = nd.hi;
          keys = Array.sub keys mid (Array.length keys - mid);
          slots = Array.sub slots mid (Array.length slots - mid);
          next = nd.next;
        },
        {
          nd with
          hi = sep;
          keys = Array.sub keys 0 mid;
          slots = Array.sub slots 0 mid;
          next = Some right_addr;
        } )
    else
      ( {
          leaf = false;
          lo = sep;
          hi = nd.hi;
          keys = Array.sub keys (mid + 1) (Array.length keys - mid - 1);
          slots = Array.sub slots (mid + 1) (Array.length slots - mid - 1);
          next = None;
        },
        { nd with hi = sep; keys = Array.sub keys 0 mid; slots = Array.sub slots 0 (mid + 1) } )
  in
  Txn.write tx right_addr (serialize t right);
  Txn.write tx addr (serialize t left);
  Some (sep, right_addr)

(* Returns the promoted separator and new right sibling when the node
   split. *)
let rec insert_at tx t addr key value : (int * Addr.t) option =
  let data = read_node tx t addr in
  let n = nkeys t data in
  let len = node_data_size t in
  if is_leaf data then begin
    let pos = lower_bound data n key in
    if pos < n && key_at data pos = key then begin
      (* update in place *)
      Codec.set_int (Txn.modify tx addr ~len) (slot_off t pos) value;
      None
    end
    else if n < t.fanout then begin
      let b = Txn.modify tx addr ~len in
      insert_word b ~off:32 ~i:pos ~n key;
      insert_word b ~off:(slot_off t 0) ~i:pos ~n value;
      Codec.set_int b 8 (n + 1);
      None
    end
    else
      let nd = parse t data in
      split tx t addr nd (array_insert nd.keys pos key) (array_insert nd.slots pos value)
  end
  else begin
    let ci = child_index data n key in
    match insert_at tx t (child_at t data ci) key value with
    | None -> None
    | Some (sep, right_addr) ->
        if n < t.fanout then begin
          let b = Txn.modify tx addr ~len in
          insert_word b ~off:32 ~i:ci ~n sep;
          insert_word b ~off:(slot_off t 0) ~i:(ci + 1) ~n:(n + 1) (Codec.encode_addr right_addr);
          Codec.set_int b 8 (n + 1);
          None
        end
        else
          let nd = parse t data in
          split tx t addr nd (array_insert nd.keys ci sep)
            (array_insert nd.slots (ci + 1) (Codec.encode_addr right_addr))
  end

let insert tx t key value =
  let root = read_root tx t in
  match insert_at tx t root key value with
  | None -> ()
  | Some (sep, right_addr) ->
      (* grow the tree: a new root over the two halves *)
      let new_root_addr = Txn.alloc tx ~size:(node_data_size t) ~near:root () in
      let new_root =
        {
          leaf = false;
          lo = min_int;
          hi = max_int;
          keys = [| sep |];
          slots = [| Codec.encode_addr root; Codec.encode_addr right_addr |];
          next = None;
        }
      in
      Txn.write tx new_root_addr (serialize t new_root);
      let b = Bytes.create 8 in
      Codec.set_int b 0 (Codec.encode_addr new_root_addr);
      Txn.write tx t.root_ptr b

(* Delete a key from its leaf (no rebalancing: interior nodes are never
   freed, which keeps stale cached pointers safe). Returns whether the key
   was present. *)
let delete tx t key =
  let addr, leaf = descend tx t (read_root tx t) key in
  let n = nkeys t leaf in
  let i = lower_bound leaf n key in
  if i >= n || key_at leaf i <> key then false
  else begin
    let b = Txn.modify tx addr ~len:(node_data_size t) in
    let close off =
      Bytes.blit b (off + (8 * (i + 1))) b (off + (8 * i)) (8 * (n - 1 - i));
      Codec.set_int b (off + (8 * (n - 1))) 0
    in
    close 32;
    close (slot_off t 0);
    Codec.set_int b 8 (n - 1);
    true
  end

(* Range scan over [lo, hi] inclusive, following the leaf chain. *)
let range tx t ~lo ~hi =
  let _, leaf0 = descend tx t (read_root tx t) lo in
  let rec walk leaf acc =
    let n = nkeys t leaf in
    let rec scan i acc =
      if i >= n then `Next acc
      else
        let k = key_at leaf i in
        if k > hi then `Done acc
        else scan (i + 1) (if k >= lo then (k, slot_at t leaf i) :: acc else acc)
    in
    match scan 0 acc with
    | `Done acc -> List.rev acc
    | `Next acc -> (
        match next_of t leaf with
        | Some next when hi_of leaf <= hi -> walk (read_node tx t next) acc
        | _ -> List.rev acc)
  in
  walk leaf0 []

(* {1 Structural invariants} — used by the test-suite: walks the whole
   tree inside a transaction and checks fence keys, key ordering, and the
   leaf chain. *)

let check_invariants tx t =
  let read_node tx t addr = parse t (read_node tx t addr) in
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let rec walk addr ~lo ~hi ~depth =
    if depth > 32 then err "tree too deep (cycle?)"
    else begin
      let nd = read_node tx t addr in
      if nd.lo <> lo then err "node %a fence_lo %d <> expected %d" Addr.pp addr nd.lo lo;
      if nd.hi <> hi then err "node %a fence_hi %d <> expected %d" Addr.pp addr nd.hi hi;
      Array.iteri
        (fun i k ->
          if k < lo || k >= hi then err "key %d outside fences at %a" k Addr.pp addr;
          if i > 0 && nd.keys.(i - 1) >= k then err "keys unsorted at %a" Addr.pp addr)
        nd.keys;
      if not nd.leaf then begin
        if Array.length nd.slots <> Array.length nd.keys + 1 then
          err "internal arity mismatch at %a" Addr.pp addr;
        Array.iteri
          (fun i child ->
            let clo = if i = 0 then lo else nd.keys.(i - 1) in
            let chi = if i = Array.length nd.keys then hi else nd.keys.(i) in
            match Codec.decode_addr child with
            | Some c -> walk c ~lo:clo ~hi:chi ~depth:(depth + 1)
            | None -> err "null child at %a" Addr.pp addr)
          nd.slots
      end
    end
  in
  walk (read_root tx t) ~lo:min_int ~hi:max_int ~depth:0;
  (* the leaf chain visits every key in order *)
  let rec leftmost addr =
    let nd = read_node tx t addr in
    if nd.leaf then (addr, nd)
    else
      match Codec.decode_addr nd.slots.(0) with
      | Some c -> leftmost c
      | None -> (addr, nd)
  in
  let _, first = leftmost (read_root tx t) in
  let rec chain (nd : node) prev count =
    let prev =
      Array.fold_left
        (fun prev k ->
          if k <= prev then err "leaf chain unsorted (%d after %d)" k prev;
          k)
        prev nd.keys
    in
    let count = count + Array.length nd.keys in
    match nd.next with
    | Some next when count < 1_000_000 -> chain (read_node tx t next) prev count
    | _ -> count
  in
  let total = chain first min_int 0 in
  (List.rev !errors, total)

(* {1 Cached lookups} *)

let cached_node st t addr = Farm_sim.Int_tbl.find_opt t.cache (cache_key st.State.id addr)

(* Drop this machine's cached internal nodes. *)
let invalidate st t =
  Farm_sim.Int_tbl.filter_map_inplace
    (fun key node -> if key_machine key = st.State.id then None else Some node)
    t.cache

(* Lock-free point lookup: navigate cached internal nodes, read the leaf
   with one RDMA read, and check its fence keys; on a miss or fence
   violation, fall back to a transactional lookup that refreshes the
   cache. *)
let lookup_lockfree st t key =
  let fallback () =
    invalidate st t;
    match Api.run_retry st ~thread:0 (fun tx -> find tx t key) with
    | Ok v -> v
    | Error _ -> None
  in
  let root =
    match Api.read_lockfree st t.root_ptr ~len:8 with
    | Some b -> Codec.get_addr b 0
    | None -> None
  in
  let in_fences data = key >= lo_of data && key < hi_of data in
  let route data = Codec.decode_addr (slot_at t data (child_index data (nkeys t data) key)) in
  match root with
  | None -> fallback ()
  | Some root ->
      let rec go addr depth =
        if depth > 24 then fallback ()
        else
          match cached_node st t addr with
          | Some data ->
              if is_leaf data then read_leaf addr
              else (
                match route data with
                | Some child -> go child (depth + 1)
                | None -> fallback ())
          | None -> read_leaf_or_descend addr depth
      and read_leaf addr =
        match Api.read_lockfree st addr ~len:(node_data_size t) with
        | None -> fallback ()
        | Some data ->
            if (not (is_leaf data)) || not (in_fences data) then fallback ()
            else leaf_find t data key
      and read_leaf_or_descend addr depth =
        match Api.read_lockfree st addr ~len:(node_data_size t) with
        | None -> fallback ()
        | Some data ->
            if is_leaf data then if in_fences data then leaf_find t data key else fallback ()
            else begin
              Farm_sim.Int_tbl.replace t.cache (cache_key st.State.id addr) data;
              match route data with
              | Some child -> go child (depth + 1)
              | None -> fallback ()
            end
      in
      go root 0
