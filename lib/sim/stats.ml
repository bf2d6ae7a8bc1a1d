module Hist = struct
  (* Log-linear histogram: 32 sub-buckets per octave above 32, exact below.
     Worst-case relative error per bucket is ~3%, plenty for latency
     percentiles. *)

  let sub_bits = 5
  let sub = 1 lsl sub_bits
  let nbuckets = 2048

  type t = {
    mutable buckets : int array;  (* covers the highest bucket recorded *)
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () = { buckets = [||]; count = 0; sum = 0; min_v = max_int; max_v = 0 }

  (* Position of the most significant set bit of [v > 0], by binary
     search over the 63 bits. *)
  let msb v =
    let v = ref v and r = ref 0 in
    if !v lsr 32 <> 0 then begin v := !v lsr 32; r := 32 end;
    if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
    if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
    if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
    if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
    if !v lsr 1 <> 0 then r := !r + 1;
    !r

  let index v =
    if v < sub then v
    else
      let k = msb v in
      let base = (k - sub_bits + 1) * sub in
      let off = (v lsr (k - sub_bits)) land (sub - 1) in
      let i = base + off in
      if i >= nbuckets then nbuckets - 1 else i

  (* Upper bound of the values mapping to bucket [i]; used as the reported
     percentile value. *)
  let bucket_value i =
    if i < sub then i
    else
      let k = (i / sub) + sub_bits - 1 in
      let off = i land (sub - 1) in
      ((1 lsl k) + ((off + 1) lsl (k - sub_bits))) - 1

  (* The bucket array grows by doubling to cover bucket [i], from
     [min_buckets] up to [nbuckets]: most histograms of an idle or untraced
     machine never see a sample, and nanosecond latencies under 16 ms stay
     below bucket 640. *)
  let min_buckets = 64

  let ensure t i =
    let n = Array.length t.buckets in
    if i >= n then begin
      let m = ref (Stdlib.max n min_buckets) in
      while i >= !m do
        m := 2 * !m
      done;
      let b = Array.make !m 0 in
      Array.blit t.buckets 0 b 0 n;
      t.buckets <- b
    end

  let record t v =
    let v = if v < 0 then 0 else v in
    let i = index v in
    ensure t i;
    let b = t.buckets in
    b.(i) <- b.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = t.max_v

  let percentile t p =
    if t.count = 0 then 0
    else begin
      let target = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      let target = if target < 1 then 1 else target in
      let acc = ref 0 in
      let result = ref t.max_v in
      (try
         for i = 0 to Array.length t.buckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      Stdlib.min !result t.max_v
    end

  (* A non-empty histogram's buckets cover [index max_v], its highest
     bucket recorded. *)
  let merge ~into src =
    if src.count > 0 then begin
      let hi = index src.max_v in
      ensure into hi;
      let b = into.buckets in
      for i = 0 to hi do
        b.(i) <- b.(i) + src.buckets.(i)
      done
    end;
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v

  let clear t =
    Array.fill t.buckets 0 (Array.length t.buckets) 0;
    t.count <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- 0
end

module Series = struct
  type t = { bin : Time.t; mutable data : int array }

  let create ~bin =
    if Time.( <= ) bin Time.zero then invalid_arg "Series.create: bin must be positive";
    { bin; data = Array.make 64 0 }

  let ensure t i =
    let n = Array.length t.data in
    if i >= n then begin
      let m = ref n in
      while i >= !m do
        m := !m * 2
      done;
      let data = Array.make !m 0 in
      Array.blit t.data 0 data 0 n;
      t.data <- data
    end

  let add t ~at n =
    let i = Time.to_ns at / Time.to_ns t.bin in
    ensure t i;
    t.data.(i) <- t.data.(i) + n

  let bin t = t.bin

  let get t i = if i < Array.length t.data then t.data.(i) else 0
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let get t = t.n
end
