(* Order statistics over host timings. *)

let sorted xs = Array.of_list (List.sort compare xs)

(* The middle sample, or the mean of the two middle ones; nan when empty. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A tail needs at least this many samples beyond it. *)
let samples_beyond_tail = 10

(* The highest sample with [samples_beyond_tail] samples above it, but
   none above the 90th percentile, and the percentile it stands for.
   Higher up, a few of the slowest ops set the value: on faults-n5 those
   are the seed's few slowest fault schedules, and p98.6 of its 720 ops
   spread 0.22 over ten seeds. With fewer than twice
   [samples_beyond_tail] samples, the highest sample with that many above
   it lies below the median, so the tail is the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n < 2 * samples_beyond_tail then (a.(n - 1), 100.0)
  else
    let beyond = max samples_beyond_tail (n / 10) in
    (a.(n - 1 - beyond), 100.0 *. float_of_int (n - beyond) /. float_of_int n)

let sum xs = List.fold_left ( +. ) 0.0 xs
