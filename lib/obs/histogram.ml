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

(* [Stats.summarize (samples t)] without the list round trip: one sorted
   copy of the samples, summarized by the same code. *)
let summary t = Stats.summarize_array (Array.sub t.samples 0 t.count)

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
