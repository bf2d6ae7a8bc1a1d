(* A timing wheel (Varghese and Lauck, SOSP 1987). Absolute bucket
   [b = key asr width_bits] lives at ring position [b land mask]. Every
   entry's bucket lies in [cur, cur + slots), so ring order from the
   smallest entry's position is time order, and the bitmap [bits], 32
   buckets per word, finds the next non-empty bucket.

   A bucket is a circular list of nodes sorted by key and then by push
   order, held by its last node [tails.(i)], whose successor is its first.
   Node [n] has its key at [ks.(2n)], its seq at [ks.(2n + 1)], its
   successor in [next.(n)] and its payload in [values.(n)]; free nodes are
   chained through [next] from [free], and a popped payload is overwritten
   with [empty] at once. [min] is the smallest key ([max_int] when empty)
   and [head] its bucket's ring position.

   [cur] follows the clock: a push first moves it up to [now]'s bucket,
   which no queued entry precedes. It never moves back, so once the clock
   is wound back below it, earlier keys are refused. *)

let width_bits = 6 (* 64 ns buckets *)
let slot_bits = 12 (* 4,096 buckets: a 262 us horizon *)
let slots = 1 lsl slot_bits
let mask = slots - 1

type 'a t = {
  tails : int array;
  bits : int array;  (* bucket [i] is non-empty iff bit [i land 31] of word [i lsr 5] *)
  mutable ks : int array;
  mutable next : int array;
  mutable values : 'a array;
  mutable free : int;  (* -1 when no node is free *)
  empty : 'a;
  mutable cur : int;
  mutable min : int;
  mutable head : int;
  mutable size : int;
}

let create ~empty =
  { tails = Array.make slots 0; bits = Array.make (slots / 32) 0; ks = [||]; next = [||];
    values = [||]; free = -1; empty; cur = 0; min = max_int; head = 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0
let min_key t = t.min

let grow t =
  let cap = Array.length t.next in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  t.ks <- Array.append t.ks (Array.make (2 * (new_cap - cap)) 0);
  t.next <- Array.append t.next (Array.init (new_cap - cap) (fun i -> cap + i + 1));
  t.next.(new_cap - 1) <- -1;
  t.values <- Array.append t.values (Array.make (new_cap - cap) t.empty);
  t.free <- cap

let push t ~now ~key ~seq value =
  let c = now asr width_bits in
  if c > t.cur then t.cur <- c;
  let b = key asr width_bits in
  (* [b - cur] in [0, slots) *)
  if (b - t.cur) lsr slot_bits <> 0 then false
  else begin
    if t.free < 0 then grow t;
    let ks = t.ks and next = t.next in
    let n = t.free in
    t.free <- next.(n);
    ks.(2 * n) <- key;
    ks.((2 * n) + 1) <- seq;
    t.values.(n) <- value;
    let i = b land mask in
    let word = t.bits.(i lsr 5) and bit = 1 lsl (i land 31) in
    let tl = t.tails.(i) in
    if word land bit = 0 then begin
      next.(n) <- n;
      t.tails.(i) <- n;
      t.bits.(i lsr 5) <- word lor bit
    end
    else if ks.(2 * tl) <= key then begin
      (* [seq] is the largest queued, so it goes after equal keys *)
      next.(n) <- next.(tl);
      next.(tl) <- n;
      t.tails.(i) <- n
    end
    else begin
      (* before the first node with a larger key; the tail has one *)
      let p = ref tl in
      while ks.(2 * next.(!p)) <= key do
        p := next.(!p)
      done;
      next.(n) <- next.(!p);
      next.(!p) <- n
    end;
    if key < t.min then begin
      t.min <- key;
      t.head <- i
    end;
    t.size <- t.size + 1;
    true
  end

let min_seq t =
  if t.size = 0 then invalid_arg "Wheel.min_seq: empty wheel";
  t.ks.((2 * t.next.(t.tails.(t.head))) + 1)

(* The lowest set bit of a non-zero 32-bit [x], by de Bruijn
   multiplication. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x = debruijn.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* The first non-empty ring position at or after [j], wrapping. *)
let next_bucket t j =
  let w = ref (j lsr 5) in
  let word = ref (t.bits.(!w) land (-1 lsl (j land 31))) in
  while !word = 0 do
    w := (!w + 1) land ((slots / 32) - 1);
    word := t.bits.(!w)
  done;
  (!w lsl 5) lor lowest_bit !word

let pop_value t =
  if t.size = 0 then invalid_arg "Wheel.pop_value: empty wheel";
  let i = t.head and next = t.next in
  let tl = t.tails.(i) in
  let n = next.(tl) in
  let value = t.values.(n) in
  t.values.(n) <- t.empty;
  t.size <- t.size - 1;
  if n <> tl then begin
    next.(tl) <- next.(n);
    t.min <- t.ks.(2 * next.(n))
  end
  else begin
    t.bits.(i lsr 5) <- t.bits.(i lsr 5) land lnot (1 lsl (i land 31));
    if t.size = 0 then t.min <- max_int
    else begin
      (* the other entries lie within [slots] buckets after this one *)
      t.head <- next_bucket t ((i + 1) land mask);
      t.min <- t.ks.(2 * next.(t.tails.(t.head)))
    end
  end;
  next.(n) <- t.free;
  t.free <- n;
  value
