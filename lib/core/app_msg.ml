open Repro_sim
open Repro_net

type id = { origin : Pid.t; seq : int }
type t = { id : id; size : int; abcast_at : Time.t }

let make ~origin ~seq ~size ~abcast_at = { id = { origin; seq }; size; abcast_at }

let compare_id a b =
  match Pid.compare a.origin b.origin with 0 -> Int.compare a.seq b.seq | c -> c

let compare a b = compare_id a.id b.id
let equal_id a b = compare_id a b = 0
let pp_id ppf id = Fmt.pf ppf "%a#%d" Pid.pp id.origin id.seq
let pp ppf m = Fmt.pf ppf "%a(%dB)" pp_id m.id m.size
