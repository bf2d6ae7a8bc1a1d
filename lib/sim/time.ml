type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let to_ns t = t
let to_us_float t = float_of_int t /. 1e3
let to_ms_float t = float_of_int t /. 1e6
let to_s_float t = float_of_int t /. 1e9

let of_ms_float f = int_of_float (f *. 1e6)

let add = ( + )
let sub = ( - )
let diff a b = a - b
let max (a : t) (b : t) = if a >= b then a else b
let min (a : t) (b : t) = if a <= b then a else b
let compare = Int.compare
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b

let mul_int t k = t * k
let div_int t k = t / k

let pp ppf t =
  if Stdlib.( >= ) t 1_000_000_000 then Fmt.pf ppf "%.3fs" (to_s_float t)
  else if Stdlib.( >= ) t 1_000_000 then Fmt.pf ppf "%.3fms" (to_ms_float t)
  else if Stdlib.( >= ) t 1_000 then Fmt.pf ppf "%.1fus" (to_us_float t)
  else Fmt.pf ppf "%dns" t
