open Repro_sim

type t = {
  edges : float array;
  bucket_counts : int array; (* length = edges + 1; last slot is overflow *)
  mutable samples : float array;
  mutable count : int;
}

(* Geometric-ish latency edges in milliseconds, spanning sub-CPU-cost
   events to badly stalled instances. *)
let default_edges =
  [| 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 1000.0 |]

let create ?(edges = default_edges) () =
  let edges = Array.copy edges in
  Array.iteri
    (fun i e ->
      if i > 0 && e <= edges.(i - 1) then
        invalid_arg "Histogram.create: edges must be strictly increasing")
    edges;
  {
    edges;
    bucket_counts = Array.make (Array.length edges + 1) 0;
    samples = Array.make 64 0.0;
    count = 0;
  }

(* First bucket whose upper edge admits [v]; the trailing slot catches
   everything past the last edge. *)
let[@inline] bucket_index t v =
  let n = Array.length t.edges in
  let i = ref 0 in
  while !i < n && not (v <= t.edges.(!i)) do
    incr i
  done;
  !i

(* Room for [extra] more samples. Capacity doubles, so a histogram holds
   the same array whether its samples were observed one by one or
   absorbed in bulk — the snapshot codec marshals the whole array. *)
let reserve t extra =
  let need = t.count + extra in
  if need > Array.length t.samples then begin
    let cap = ref (Array.length t.samples) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap 0.0 in
    Array.blit t.samples 0 bigger 0 t.count;
    t.samples <- bigger
  end

(* Inlined into [observe_span] so the sample is never boxed. *)
let[@inline] observe t v =
  let b = bucket_index t v in
  t.bucket_counts.(b) <- t.bucket_counts.(b) + 1;
  reserve t 1;
  t.samples.(t.count) <- v;
  t.count <- t.count + 1

let observe_span t span = observe t (Time.span_to_ms_float span)
let count t = t.count
let edges t = Array.copy t.edges

let buckets t =
  let upper i =
    if i < Array.length t.edges then Some t.edges.(i) else None (* +inf *)
  in
  Array.to_list (Array.mapi (fun i c -> (upper i, c)) t.bucket_counts)

let samples t = Array.to_list (Array.sub t.samples 0 t.count)

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
   any other input gets [Stats.summarize]'s own sort, which places such
   ties where it does. *)
let sort_floats (a : float array) =
  let nonneg = ref true in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x <> x || Float.sign_bit x then nonneg := false
  done;
  if !nonneg && Array.length a > 0 then radix_sort a else Array.sort compare a

(* [Stats.summarize (samples t)] without the list round trip: one sorted
   copy of the samples, and mean and variance summed in the same order
   with the same operations, so every field is bit-identical. *)
let summary t =
  let n = t.count in
  if n = 0 then Stats.summarize []
  else begin
    let a = Array.sub t.samples 0 n in
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
      Stats.count = n;
      mean;
      stddev;
      ci95 = 1.96 *. stddev /. sqrt fn;
      min = a.(0);
      max = a.(n - 1);
      p50 = Stats.percentile a 0.5;
      p95 = Stats.percentile a 0.95;
      p99 = Stats.percentile a 0.99;
    }
  end

let absorb ~into src =
  if
    not
      (Array.length into.edges = Array.length src.edges
      && Array.for_all2 (fun a b -> Float.equal a b) into.edges src.edges)
  then invalid_arg "Histogram.absorb: bucket edges differ";
  Array.iteri (fun b c -> into.bucket_counts.(b) <- into.bucket_counts.(b) + c) src.bucket_counts;
  reserve into src.count;
  Array.blit src.samples 0 into.samples into.count src.count;
  into.count <- into.count + src.count
