(* [Hashtbl.hash] on ints, in OCaml. The runtime's [caml_hash] runs
   MurmurHash3's 32-bit mixing over the value's machine word, which for an
   int is the tagged word [2x + 1]; a block first mixes its header. Doing
   the same arithmetic here avoids the C call and the generic traversal,
   and because the result is bit-identical, a table keyed this way places
   every key in the same bucket as a generic [Hashtbl] and iterates in the
   same order. *)

let m32 = 0xffff_ffff
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let[@inline] mix h d =
  let d = (d * 0xcc9e2d51) land m32 in
  let d = rotl32 d 15 in
  let d = (d * 0x1b873593) land m32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land m32

(* [caml_hash_mix_intnat] on the tagged word of [x]: the low 32 bits of
   [2x + 1], xor-folded with its high half and its sign *)
let[@inline] mix_int h x = mix h (((x asr 31) lxor (x asr 62) lxor ((2 * x) + 1)) land m32)

let[@inline] final_mix h =
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land m32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land m32 in
  (h lxor (h lsr 16)) land 0x3fff_ffff

let[@inline] hash x = final_mix (mix_int 0 x)

(* header word of a 4-field block with tag 0 *)
let tuple4_header = 4 lsl 10

let hash4 a b c d =
  final_mix (mix_int (mix_int (mix_int (mix_int (mix 0 tuple4_header) a) b) c) d)

(* The table itself is the stdlib's [Hashtbl] algorithm specialised to int
   keys: the same power-of-two bucket array, head insertion, resize when
   the load passes two, order-preserving rehash, and bucket-then-chain
   traversal. Together with the identical hash, that keeps the layout and
   the iteration order of a generic table. Specialising it removes the
   functor's indirect calls to [hash] and [equal] on every lookup. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }
type 'a t = { mutable size : int; mutable data : 'a bucket array; initial_size : int }

let rec power_2_above x n =
  if x >= n then x else if x * 2 > Sys.max_array_length then x else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s }

let length t = t.size

let reset t =
  t.size <- 0;
  if Array.length t.data = t.initial_size then Array.fill t.data 0 t.initial_size Empty
  else t.data <- Array.make t.initial_size Empty

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

let add t key data =
  let i = index t key in
  t.data.(i) <- Cons { key; data; next = t.data.(i) };
  t.size <- t.size + 1;
  if t.size > Array.length t.data lsl 1 then resize t

let rec replace_bucket key data = function
  | Empty -> true
  | Cons c ->
      if c.key = key then begin
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
      if c.key = key then begin
        t.size <- t.size - 1;
        match prec with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next
      end
      else remove_bucket t i key cell c.next

let remove t key =
  let i = index t key in
  remove_bucket t i key Empty t.data.(i)

let rec find_bucket key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_bucket key c.next

let find t key = find_bucket key t.data.(index t key)

let rec find_opt_bucket key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_bucket key c.next

let find_opt t key = find_opt_bucket key t.data.(index t key)

let rec mem_bucket key = function Empty -> false | Cons c -> c.key = key || mem_bucket key c.next
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
  let rec go b acc = match b with Empty -> acc | Cons { key; data; next } -> go next (f key data acc) in
  Array.fold_left (fun acc b -> go b acc) init t.data

let filter_map_inplace f t =
  let rec go i prec = function
    | Empty -> ( match prec with Empty -> t.data.(i) <- Empty | Cons p -> p.next <- Empty)
    | Cons c as cell -> (
        match f c.key c.data with
        | None ->
            t.size <- t.size - 1;
            go i prec c.next
        | Some data ->
            (match prec with Empty -> t.data.(i) <- cell | Cons p -> p.next <- cell);
            c.data <- data;
            go i cell c.next)
  in
  for i = 0 to Array.length t.data - 1 do
    go i Empty t.data.(i)
  done
