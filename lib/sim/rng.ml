(* The xoshiro256** state s0..s3, as four little-endian 64-bit words.
   Kept in bytes rather than in [mutable int64] fields, whose every store
   would box a fresh [Int64]: here a draw allocates nothing. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (8 * i)
let set t i v = Bytes.set_int64_le t (8 * i) v

(* splitmix64, used to expand a seed into xoshiro state and to split
   generators. Constants from Steele et al., "Fast splittable PRNGs". *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next *)
let[@inline] next_int64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let split t = of_splitmix (next_int64 t)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int x /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
