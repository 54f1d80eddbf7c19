open Repro_net

(* Newest first. Lookups are top-level scans taking their keys as
   arguments, so they allocate no closure. *)
type t = {
  mutable proposals : (int * Pid.t * Batch.t) list;
  mutable acks : (int * Pid.t) list;
  mutable estimates : (int * Pid.t * int * Batch.t) list; (* round, src, ts, value *)
}

let create () = { proposals = []; acks = []; estimates = [] }

let rec find_proposal round proposer = function
  | [] -> None
  | (r, p, v) :: rest ->
    if r = round && p = proposer then Some v else find_proposal round proposer rest

let proposal t ~round ~proposer = find_proposal round proposer t.proposals

let set_proposal t ~round ~proposer value =
  t.proposals <-
    (round, proposer, value)
    :: List.filter (fun (r, p, _) -> r <> round || p <> proposer) t.proposals

let proposers t ~round =
  List.filter_map (fun (r, p, _) -> if r = round then Some p else None) t.proposals
  |> List.sort Int.compare

let rec has_ack round pid = function
  | [] -> false
  | (r, p) :: rest -> (r = round && p = pid) || has_ack round pid rest

let rec count_acks round n = function
  | [] -> n
  | (r, _) :: rest -> count_acks round (if r = round then n + 1 else n) rest

let reset_acks t ~round pid =
  t.acks <- (round, pid) :: List.filter (fun (r, _) -> r <> round) t.acks

let add_ack t ~round pid =
  if not (has_ack round pid t.acks) then t.acks <- (round, pid) :: t.acks

let ack_count t ~round = count_acks round 0 t.acks

let add_estimate t ~round ~src ~ts value =
  if not (List.exists (fun (r, p, _, _) -> r = round && p = src) t.estimates) then
    t.estimates <- (round, src, ts, value) :: t.estimates

let estimates t ~round =
  List.filter_map (fun (r, p, ts, v) -> if r = round then Some (p, ts, v) else None) t.estimates

(* A strict total order on estimates from distinct senders, so the fold's
   result does not depend on list order. *)
let better (p1, ts1, v1) (p2, ts2, v2) =
  if ts1 <> ts2 then ts1 > ts2
  else if Batch.size v1 <> Batch.size v2 then Batch.size v1 > Batch.size v2
  else p1 < p2

let chosen_estimate t ~round ~majority ~own =
  let received = estimates t ~round in
  let ests =
    match own with
    | Some ((me, _, _) as mine) when not (List.exists (fun (p, _, _) -> p = me) received) ->
      mine :: received
    | Some _ | None -> received
  in
  match ests with
  | first :: rest when List.length ests >= majority ->
    let _, _, v = List.fold_left (fun best e -> if better e best then e else best) first rest in
    Some v
  | _ -> None
