(* Transaction identifiers <c, m, t, l> (§5.3): the configuration in which
   the commit started, the coordinator machine, the coordinator thread, and
   a thread-local sequence number. *)

type t = { config : int; machine : int; thread : int; local : int }

let make ~config ~machine ~thread ~local = { config; machine; thread; local }

let compare a b =
  let c = Int.compare a.config b.config in
  if c <> 0 then c
  else
    let c = Int.compare a.machine b.machine in
    if c <> 0 then c
    else
      let c = Int.compare a.thread b.thread in
      if c <> 0 then c else Int.compare a.local b.local

let equal a b = compare a b = 0

let hash t = Farm_sim.Int_tbl.hash4 t.config t.machine t.thread t.local

(* Key identifying the coordinator thread, used for truncation tracking and
   for sharding recovery work across threads. *)
let coord_key t = (t.machine, t.thread)

(* The same identity packed into one int, for the per-record hot path:
   keying the truncation tables on a tuple would allocate the key and
   hash it structurally on every log record processed. Threads fit in 10
   bits ([Params.threads_per_machine] is single digits). *)
let coord_id t = (t.machine lsl 10) lor t.thread

let pp ppf t = Fmt.pf ppf "<c%d,m%d,t%d,l%d>" t.config t.machine t.thread t.local

(* Tables keyed by txid: the stdlib's [Hashtbl] algorithm specialised to
   this key, as [Int_tbl] is to ints. Same hash, same power-of-two
   buckets, head insertion, resize when the load passes two and
   order-preserving rehash, so a table here places and iterates its keys
   exactly as [Hashtbl.Make] would; specialising it removes the functor's
   indirect calls to [hash] and [equal] on every lookup. *)
module Tbl = struct
  type key = t
  type 'a bucket = Empty | Cons of { key : key; mutable data : 'a; mutable next : 'a bucket }
  type 'a t = { mutable size : int; mutable data : 'a bucket array }

  let[@inline] same (a : key) (b : key) =
    a.local = b.local && a.machine = b.machine && a.thread = b.thread && a.config = b.config

  let rec power_2_above x n =
    if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

  let create n = { size = 0; data = Array.make (power_2_above 16 n) Empty }
  let length t = t.size
  let[@inline] index t key = hash key land (Array.length t.data - 1)

  (* Rehash into twice the buckets, keeping each chain's relative order.
     Fresh cells leave the old array intact for a traversal in progress. *)
  let resize t =
    let odata = t.data in
    let nsize = Array.length odata * 2 in
    if nsize < Sys.max_array_length then begin
      let ndata = Array.make nsize Empty and tails = Array.make nsize Empty in
      t.data <- ndata;
      let rec insert = function
        | Empty -> ()
        | Cons { key; data; next } ->
            let cell = Cons { key; data; next = Empty } in
            let i = index t key in
            (match tails.(i) with Empty -> ndata.(i) <- cell | Cons tail -> tail.next <- cell);
            tails.(i) <- cell;
            insert next
      in
      Array.iter insert odata
    end

  let rec replace_bucket key data = function
    | Empty -> true
    | Cons c ->
        if same c.key key then begin
          c.data <- data;
          false
        end
        else replace_bucket key data c.next

  let replace t key data =
    let i = index t key in
    let l = t.data.(i) in
    if replace_bucket key data l then begin
      t.data.(i) <- Cons { key; data; next = l };
      t.size <- t.size + 1;
      if t.size > Array.length t.data lsl 1 then resize t
    end

  let rec remove_bucket t i key prec = function
    | Empty -> ()
    | Cons c as cell ->
        if same c.key key then begin
          t.size <- t.size - 1;
          match prec with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next
        end
        else remove_bucket t i key cell c.next

  let remove t key =
    let i = index t key in
    remove_bucket t i key Empty t.data.(i)

  let rec find_opt_bucket key = function
    | Empty -> None
    | Cons c -> if same c.key key then Some c.data else find_opt_bucket key c.next

  let find_opt t key = find_opt_bucket key t.data.(index t key)

  let rec mem_bucket key = function
    | Empty -> false
    | Cons c -> same c.key key || mem_bucket key c.next

  let mem t key = mem_bucket key t.data.(index t key)

  let iter f t =
    let rec go = function
      | Empty -> ()
      | Cons { key; data; next } ->
          f key data;
          go next
    in
    Array.iter go t.data

  let fold f t init =
    let rec go b acc =
      match b with Empty -> acc | Cons { key; data; next } -> go next (f key data acc)
    in
    Array.fold_left (fun acc b -> go b acc) init t.data
end

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
