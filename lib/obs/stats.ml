type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty =
  {
    count = 0;
    mean = 0.0;
    stddev = 0.0;
    ci95 = 0.0;
    min = 0.0;
    max = 0.0;
    p50 = 0.0;
    p95 = 0.0;
    p99 = 0.0;
  }

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

(* In-place ascending sort of an array of non-negative floats (NaN and
   -0.0 excluded). Such floats order as their bit patterns do, and their
   sign bit is clear, so bits 0–62 — exactly an OCaml int — are an
   order-preserving key: LSD radix sort on 11-bit digits, skipping each
   digit all keys share. Several times faster than a comparison sort on
   the hundreds of thousands of samples a sharded run records. *)
let radix_sort (a : float array) =
  let n = Array.length a in
  let digit_bits = 11 in
  let mask = (1 lsl digit_bits) - 1 in
  let count = Array.make (mask + 1) 0 in
  let src = ref (Array.init n (fun i -> Int64.to_int (Int64.bits_of_float a.(i)))) in
  let dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift < 63 do
    let s = !src and sh = !shift in
    Array.fill count 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let d = (s.(i) lsr sh) land mask in
      count.(d) <- count.(d) + 1
    done;
    if count.((s.(0) lsr sh) land mask) < n then begin
      let start = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !start;
        start := !start + c
      done;
      let d' = !dst in
      for i = 0 to n - 1 do
        let k = s.(i) in
        let d = (k lsr sh) land mask in
        d'.(count.(d)) <- k;
        count.(d) <- count.(d) + 1
      done;
      src := d';
      dst := s
    end;
    shift := sh + digit_bits
  done;
  (* [Int64.of_int] sign-extends bit 62 into bit 63; the float's sign bit
     was clear. *)
  let s = !src in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (Int64.logand (Int64.of_int s.(i)) Int64.max_int)
  done

(* Any two ascending sorts of an array leave the same bit patterns in the
   same places unless distinct patterns compare equal: 0.0 and -0.0, or
   NaNs. Latency samples are never negative, so they take [radix_sort];
   any other input gets a comparison sort, which places such ties where
   the list-sorting [summarize] this replaced did. *)
let sort_floats (a : float array) =
  let nonneg = ref true in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x <> x || Float.sign_bit x then nonneg := false
  done;
  if !nonneg && Array.length a > 0 then radix_sort a else Array.sort Float.compare a

(* Mean and variance summed in ascending order, in loops over the
   unboxed array. *)
let summarize_array a =
  let n = Array.length a in
  if n = 0 then empty
  else begin
    sort_floats a;
    let fn = float_of_int n in
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      sum := !sum +. a.(i)
    done;
    let mean = !sum /. fn in
    let var =
      if n < 2 then 0.0
      else begin
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. ((a.(i) -. mean) ** 2.0)
        done;
        !acc /. (fn -. 1.0)
      end
    in
    let stddev = sqrt var in
    {
      count = n;
      mean;
      stddev;
      ci95 = 1.96 *. stddev /. sqrt fn;
      min = a.(0);
      max = a.(n - 1);
      p50 = percentile a 0.5;
      p95 = percentile a 0.95;
      p99 = percentile a 0.99;
    }
  end

let summarize samples = summarize_array (Array.of_list samples)

let pp_summary ppf s =
  Fmt.pf ppf "%.3f ±%.3f (p50=%.3f, p95=%.3f, n=%d)" s.mean s.ci95 s.p50 s.p95 s.count
