open Farm_sim
open Farm_core
open Farm_kv

(* YCSB — the key-value benchmark the original FaRM paper [16] evaluated
   and that this paper's §6.3 read-performance experiment derives from.
   Implemented over the FaRM hash table with the standard core workloads:

     A  update heavy   50% read / 50% update
     B  read mostly    95% read /  5% update
     C  read only     100% read
     D  read latest    95% read /  5% insert, reads skewed to recent keys
     F  read-modify-write  50% read / 50% RMW

   (E, scan-heavy, runs over the FaRM B-tree.) Reads use the lock-free
   path; updates/RMWs run transactions. Key popularity follows a zipfian
   approximation as in the YCSB reference implementation. *)

type profile = A | B | C | D | E | F

let profile_name = function
  | A -> "A (update heavy)"
  | B -> "B (read mostly)"
  | C -> "C (read only)"
  | D -> "D (read latest)"
  | E -> "E (short scans)"
  | F -> "F (read-modify-write)"

type t = {
  table : Hashtable.t;
  tree : Btree.t;  (* ordered view for workload E *)
  mutable keys : int;  (* current key count (D inserts grow it) *)
  vsize : int;
}

let key16 v =
  let b = Bytes.make 16 '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let create cluster ~keys ~regions =
  let rids = Array.map (fun i -> i.Wire.rid) (Cluster.alloc_regions cluster regions) in
  let table =
    Hashtable.create cluster ~regions:rids ~buckets:(max 64 (keys / 4)) ~ksize:16 ~vsize:32 ()
  in
  let tree =
    Cluster.run_on cluster ~machine:0 (fun st ->
        Btree.create st ~thread:0 ~regions:rids ())
  in
  { table; tree; keys; vsize = 32 }

let load cluster t =
  let i = ref 0 in
  while !i < t.keys do
    let lo = !i and hi = min t.keys (!i + 50) in
    Cluster.run_on cluster ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              for k = lo to hi - 1 do
                Hashtable.insert tx t.table (key16 k) (Bytes.make t.vsize 'v');
                Btree.insert tx t.tree k k
              done)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "Ycsb.load: %a" Txn.pp_abort e);
    i := hi
  done

(* Zipfian-ish popularity: repeated halving picks hot keys exponentially
   more often (the standard cheap approximation). *)
let zipf rng n =
  let rec go span =
    if span <= 1 then 0
    else if Rng.int rng 100 < 40 then Rng.int rng (max 1 (span / 8))
    else go (span / 8) + Rng.int rng (max 1 (span - (span / 8)))
  in
  min (n - 1) (go n)

let read_op st t k = Hashtable.lookup_lockfree st t.table (key16 k) <> None

let update_op (ctx : Driver.worker_ctx) t k =
  match
    Api.run_retry ~attempts:8 ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
        Hashtable.insert tx t.table (key16 k) (Bytes.make t.vsize 'u'))
  with
  | Ok () -> true
  | Error _ -> false

let rmw_op (ctx : Driver.worker_ctx) t k =
  match
    Api.run_retry ~attempts:8 ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
        match Hashtable.lookup tx t.table (key16 k) with
        | Some v ->
            Bytes.set v 0 (Char.chr ((Char.code (Bytes.get v 0) + 1) land 0xff));
            Hashtable.insert tx t.table (key16 k) v
        | None -> Hashtable.insert tx t.table (key16 k) (Bytes.make t.vsize 'r'))
  with
  | Ok () -> true
  | Error _ -> false

let insert_op (ctx : Driver.worker_ctx) t =
  let k = t.keys in
  t.keys <- t.keys + 1;
  match
    Api.run_retry ~attempts:8 ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
        Hashtable.insert tx t.table (key16 k) (Bytes.make t.vsize 'i');
        Btree.insert tx t.tree k k)
  with
  | Ok () -> true
  | Error _ -> false

let scan_op (ctx : Driver.worker_ctx) t k =
  match
    Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
        Btree.range tx t.tree ~lo:k ~hi:(k + 20))
  with
  | Ok _ -> true
  | Error _ -> false

let op profile t (ctx : Driver.worker_ctx) =
  let st = ctx.Driver.st and rng = ctx.Driver.rng in
  let roll = Rng.int rng 100 in
  match profile with
  | A -> if roll < 50 then read_op st t (zipf rng t.keys) else update_op ctx t (zipf rng t.keys)
  | B -> if roll < 95 then read_op st t (zipf rng t.keys) else update_op ctx t (zipf rng t.keys)
  | C -> read_op st t (zipf rng t.keys)
  | D ->
      if roll < 95 then
        (* read latest: skew toward the most recently inserted keys *)
        read_op st t (t.keys - 1 - zipf rng (min t.keys 64))
      else insert_op ctx t
  | E -> if roll < 95 then scan_op ctx t (zipf rng (max 1 (t.keys - 21))) else insert_op ctx t
  | F -> if roll < 50 then read_op st t (zipf rng t.keys) else rmw_op ctx t (zipf rng t.keys)
