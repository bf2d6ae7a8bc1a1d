module Hist = struct
  (* Log-linear histogram: 32 sub-buckets per octave above 32, exact below.
     Worst-case relative error per bucket is ~3%, plenty for latency
     percentiles. *)

  let sub_bits = 5
  let sub = 1 lsl sub_bits
  let nbuckets = 2048

  type t = {
    mutable buckets : int array;  (* [||] until the first sample *)
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

  (* Buckets are allocated on first use: most histograms of an idle or
     untraced machine never see a sample. *)
  let buckets t =
    if Array.length t.buckets = 0 then t.buckets <- Array.make nbuckets 0;
    t.buckets

  let record t v =
    let v = if v < 0 then 0 else v in
    let b = buckets t in
    let i = index v in
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
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             result := bucket_value i;
             raise Exit
           end
         done
       with Exit -> ());
      Stdlib.min !result t.max_v
    end

  let merge ~into src =
    if src.count > 0 then begin
      let b = buckets into in
      Array.iteri (fun i n -> b.(i) <- b.(i) + n) src.buckets
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

  let to_list t ~until =
    let nbins = (Time.to_ns until + Time.to_ns t.bin - 1) / Time.to_ns t.bin in
    List.init nbins (fun i -> (Time.mul_int t.bin i, get t i))

  let rate_per_us t i = float_of_int (get t i) /. Time.to_us_float t.bin
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let get t = t.n
  let clear t = t.n <- 0
end
