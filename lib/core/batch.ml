(* A batch is a strictly ascending array of messages (by identity), so
   size is the array length, membership a binary search, and two batches
   with the same messages are structurally equal. *)

type t = App_msg.t array

let empty = [||]
let is_empty t = Array.length t = 0
let size = Array.length

let strictly_ascending a =
  let rec go i =
    i >= Array.length a || (App_msg.compare a.(i - 1) a.(i) < 0 && go (i + 1))
  in
  go 1

(* Sort stably, then keep the last copy of each identity — what a chain
   of [Map.add]s over the input kept. *)
let of_array a =
  if strictly_ascending a then a
  else begin
    Array.stable_sort App_msg.compare a;
    let n = Array.length a in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if i + 1 = n || App_msg.compare a.(i) a.(i + 1) <> 0 then begin
        a.(!kept) <- a.(i);
        incr kept
      end
    done;
    if !kept = n then a else Array.sub a 0 !kept
  end

let of_list l = of_array (Array.of_list l)
let to_list = Array.to_list
let iter = Array.iter
let fold = Array.fold_left
let payload_bytes t = fold (fun acc m -> acc + m.App_msg.size) 0 t

let mem t id =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let c = App_msg.compare_id id t.(mid).App_msg.id in
    c = 0 || if c < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length t)

let equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> App_msg.compare x y = 0) a b

let pp ppf t =
  Fmt.pf ppf "{%a}" (Fmt.array ~sep:(Fmt.any ", ") App_msg.pp) t
