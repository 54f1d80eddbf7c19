(* Unit tests for the core data types: application messages, batches,
   consensus round slots, the wire-size model, parameters, flow control,
   and the order checker. *)

open Repro_sim
open Repro_core

let mk ?(size = 100) origin seq = App_msg.make ~origin ~seq ~size ~abcast_at:Time.zero

(* ---- App_msg ---- *)

let test_app_msg_identity () =
  let a = mk 0 1 and b = mk 0 2 and c = mk 1 0 in
  Alcotest.(check int) "same id equal" 0 (App_msg.compare_id a.App_msg.id a.App_msg.id);
  Alcotest.(check bool) "seq orders within origin" true
    (App_msg.compare_id a.App_msg.id b.App_msg.id < 0);
  Alcotest.(check bool) "origin dominates seq" true
    (App_msg.compare_id b.App_msg.id c.App_msg.id < 0);
  Alcotest.(check bool) "equal_id" true (App_msg.equal_id a.App_msg.id a.App_msg.id);
  Alcotest.(check string) "pp" "p1#1(100B)" (Fmt.str "%a" App_msg.pp a)

(* ---- Batch ---- *)

let test_batch_canonical () =
  let b1 = Batch.of_list [ mk 2 0; mk 0 0; mk 1 0 ] in
  let b2 = Batch.of_list [ mk 0 0; mk 1 0; mk 2 0; mk 0 0 ] in
  Alcotest.(check bool) "order-insensitive and deduped" true (Batch.equal b1 b2);
  Alcotest.(check int) "size" 3 (Batch.size b1);
  Alcotest.(check (list int)) "to_list sorted by origin"
    [ 0; 1; 2 ]
    (List.map (fun m -> m.App_msg.id.App_msg.origin) (Batch.to_list b1))

let test_batch_operations () =
  let b = Batch.of_list [ mk ~size:10 0 0; mk ~size:20 1 0 ] in
  Alcotest.(check int) "payload_bytes" 30 (Batch.payload_bytes b);
  Alcotest.(check bool) "mem" true (Batch.mem b (mk 0 0).App_msg.id);
  Alcotest.(check bool) "not mem" false (Batch.mem b (mk 2 0).App_msg.id);
  Alcotest.(check bool) "empty" true (Batch.is_empty Batch.empty);
  Alcotest.(check int) "fold" 2 (Batch.fold (fun acc _ -> acc + 1) 0 b);
  let seen = ref [] in
  Batch.iter (fun m -> seen := m.App_msg.id.App_msg.origin :: !seen) b;
  Alcotest.(check (list int)) "iter ascending" [ 1; 0 ] !seen

(* Reference model: the [Map]-backed batch the array replaced. [Map.add]
   replaces, so of several copies of one identity the last one stays. *)
module Id_map = Map.Make (struct
  type t = App_msg.id

  let compare = App_msg.compare_id
end)

let map_batch l = List.fold_left (fun acc m -> Id_map.add m.App_msg.id m acc) Id_map.empty l

(* Same identity and same size: an equivocated copy differs only in size. *)
let same_msgs a b =
  List.equal
    (fun (x : App_msg.t) (y : App_msg.t) -> App_msg.compare x y = 0 && x.size = y.size)
    a b

(* Identities over few origins and seqs, so duplicates are common, and
   three sizes per identity, so duplicates are often equivocated copies. *)
let arb_batch_input =
  QCheck.(list_of_size Gen.(0 -- 40) (triple (int_bound 4) (int_bound 12) (int_bound 2)))

let batch_input l = List.map (fun (o, s, v) -> mk ~size:(100 + v) o s) l

let prop_batch_matches_map =
  QCheck.Test.make ~name:"array batch matches the map-backed batch" ~count:500
    (QCheck.pair arb_batch_input arb_batch_input) (fun (xs, ys) ->
      let l = batch_input xs and l' = batch_input ys in
      let b = Batch.of_list l and r = map_batch l in
      let b' = Batch.of_list l' and r' = map_batch l' in
      let expected = List.map snd (Id_map.bindings r) in
      let probes =
        List.concat_map (fun o -> List.init 14 (fun s -> { App_msg.origin = o; seq = s })) [ 0; 1; 2; 3; 4; 5 ]
      in
      same_msgs (Batch.to_list b) expected
      && Batch.size b = Id_map.cardinal r
      && Batch.payload_bytes b = Id_map.fold (fun _ m acc -> acc + m.App_msg.size) r 0
      && List.for_all (fun id -> Batch.mem b id = Id_map.mem id r) probes
      && Batch.equal b b' = Id_map.equal (fun _ _ -> true) r r'
      && Batch.equal b (Batch.of_list (List.rev l))
      && same_msgs (Batch.to_list (Batch.of_list expected)) expected
      && Batch.fold (fun acc m -> m :: acc) [] b = List.rev (Batch.to_list b))

(* ---- Msg_table ---- *)

type table_op =
  | Add_next of int * int * int (* origin, seq step from the origin's last add, size *)
  | Add_at of int * int * int (* origin, seq, size *)
  | Add_below of int * int * int (* origin, distance below its lowest seq, size *)
  | Remove_at of int * int (* origin, seq: often absent *)
  | Remove_lowest of int (* sheds a window from the front *)
  | Take of int

let gen_table_op n bound =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun o d v -> Add_next (o, d, v)) (int_bound (n - 1)) (int_range (-3) 9) (int_bound 2));
        (2, map3 (fun o s v -> Add_at (o, s, v)) (int_bound (n - 1)) (int_bound bound) (int_bound 2));
        (2, map3 (fun o k v -> Add_below (o, k, v)) (int_bound (n - 1)) (int_range 1 24) (int_bound 2));
        (2, map2 (fun o s -> Remove_at (o, s)) (int_bound (n - 1)) (int_bound bound));
        (5, map (fun o -> Remove_lowest o) (int_bound (n - 1)));
        (1, map (fun c -> Take c) (int_bound 12));
      ])

let pp_table_op = function
  | Add_next (o, d, v) -> Printf.sprintf "add_next(%d,%+d,%d)" o d v
  | Add_at (o, s, v) -> Printf.sprintf "add(%d,%d,%d)" o s v
  | Add_below (o, k, v) -> Printf.sprintf "add_below(%d,%d,%d)" o k v
  | Remove_at (o, s) -> Printf.sprintf "remove(%d,%d)" o s
  | Remove_lowest o -> Printf.sprintf "remove_lowest(%d)" o
  | Take c -> Printf.sprintf "take(%d)" c

let arb_table_run =
  let gen =
    QCheck.Gen.(
      (* A tight seq bound makes rows re-base onto bases they had before,
         where a slot left behind by a shift would show up again. *)
      pair (oneofl [ 3; 5; 7 ]) (oneofl [ 12; 80 ]) >>= fun (n, bound) ->
      map (fun ops -> (n, ops)) (list_size (0 -- 400) (gen_table_op n bound)))
  in
  QCheck.make gen ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map pp_table_op ops)))

let rec first k = function x :: rest when k > 0 -> x :: first (k - 1) rest | _ -> []

(* Apply each operation to a [Msg_table] and to an [Id_map] reference,
   and after every step compare lookups over every identity touched so
   far, the size, the ascending listing and [take] at several caps. *)
let prop_msg_table_model =
  QCheck.Test.make ~name:"msg table matches a map reference" ~count:300 arb_table_run
    (fun (n, ops) ->
      let t = Msg_table.create ~n in
      let r = ref Id_map.empty in
      let last = Array.make n 0 in
      let touched = ref [] in
      let id o s = { App_msg.origin = o; seq = s } in
      let add o s v =
        let m = mk ~size:(100 + v) o s in
        touched := m.App_msg.id :: !touched;
        Msg_table.add t m;
        r := Id_map.add m.App_msg.id m !r
      in
      let remove i =
        touched := i :: !touched;
        Msg_table.remove t i;
        r := Id_map.remove i !r
      in
      let agrees extra_cap =
        let expected = List.map snd (Id_map.bindings !r) in
        let size = Id_map.cardinal !r in
        Msg_table.size t = size
        && Msg_table.is_empty t = (size = 0)
        && same_msgs (Msg_table.to_list t) expected
        && List.for_all
             (fun i ->
               Msg_table.mem t i = Id_map.mem i !r
               && Option.equal
                    (fun a b -> same_msgs [ a ] [ b ])
                    (Msg_table.find_opt t i) (Id_map.find_opt i !r))
             !touched
        && List.for_all
             (fun cap -> same_msgs (Batch.to_list (Msg_table.take t ~cap)) (first cap expected))
             [ 0; 1; 2; 5; extra_cap; size - 1; size; size + 3 ]
      in
      List.for_all
        (fun op ->
          let extra_cap =
            match op with
            | Add_next (o, d, v) ->
              let s = max 0 (last.(o) + d) in
              last.(o) <- s;
              add o s v;
              3
            | Add_at (o, s, v) ->
              add o s v;
              4
            | Add_below (o, k, v) ->
              (* Just under the live window: the row re-bases downwards. *)
              let lowest =
                match Id_map.find_first_opt (fun i -> i.App_msg.origin >= o) !r with
                | Some (i, _) when i.App_msg.origin = o -> i.App_msg.seq
                | _ -> last.(o)
              in
              add o (max 0 (lowest - k)) v;
              5
            | Remove_at (o, s) ->
              remove (id o s);
              6
            | Remove_lowest o -> (
              match Id_map.find_first_opt (fun i -> i.App_msg.origin >= o) !r with
              | Some (i, _) when i.App_msg.origin = o ->
                remove i;
                7
              | _ -> 7)
            | Take c -> c
          in
          agrees extra_cap)
        ops)

let prop_batch_sorted =
  QCheck.Test.make ~name:"batch to_list is always identity-sorted" ~count:200
    QCheck.(list (pair (int_bound 6) (int_bound 50)))
    (fun l ->
      let b = Batch.of_list (List.map (fun (o, s) -> mk o s) l) in
      let out = Batch.to_list b in
      List.sort App_msg.compare out = out)

(* ---- Rounds ---- *)

(* Reference model: the three hash tables per instance that Rounds
   replaced, updated exactly as the consensus modules used to. *)
type rounds_model = {
  m_proposals : (int * int, Batch.t) Hashtbl.t;
  m_acks : (int, int list ref) Hashtbl.t;
  m_estimates : (int, (int * (int * Batch.t)) list ref) Hashtbl.t;
}

type rounds_op =
  | Set_proposal of int * int * int (* round, proposer, value *)
  | Add_ack of int * int
  | Reset_acks of int * int
  | Add_estimate of int * int * int * int (* round, src, ts, value *)

(* Five values: two empty batches (equal), then sizes 1, 2, 1. *)
let rounds_value k = Batch.of_list (List.init (k mod 3) (fun i -> mk k i))

let model_apply m = function
  | Set_proposal (r, p, v) -> Hashtbl.replace m.m_proposals (r, p) (rounds_value v)
  | Add_ack (r, p) -> (
    match Hashtbl.find_opt m.m_acks r with
    | Some slot -> if not (List.mem p !slot) then slot := p :: !slot
    | None -> Hashtbl.add m.m_acks r (ref [ p ]))
  | Reset_acks (r, p) -> Hashtbl.replace m.m_acks r (ref [ p ])
  | Add_estimate (r, p, ts, v) -> (
    match Hashtbl.find_opt m.m_estimates r with
    | Some slot ->
      if not (List.mem_assoc p !slot) then slot := (p, (ts, rounds_value v)) :: !slot
    | None -> Hashtbl.add m.m_estimates r (ref [ (p, (ts, rounds_value v)) ]))

let rounds_apply t = function
  | Set_proposal (r, p, v) -> Rounds.set_proposal t ~round:r ~proposer:p (rounds_value v)
  | Add_ack (r, p) -> Rounds.add_ack t ~round:r p
  | Reset_acks (r, p) -> Rounds.reset_acks t ~round:r p
  | Add_estimate (r, p, ts, v) -> Rounds.add_estimate t ~round:r ~src:p ~ts (rounds_value v)

(* The choice rule as the consensus modules wrote it over the tables. *)
let model_choose m ~round ~majority ~own =
  let received =
    match Hashtbl.find_opt m.m_estimates round with Some slot -> !slot | None -> []
  in
  let ests =
    match own with
    | Some (me, ts, v) when not (List.mem_assoc me received) -> (me, (ts, v)) :: received
    | _ -> received
  in
  let better (p1, (ts1, v1)) (p2, (ts2, v2)) =
    if ts1 <> ts2 then ts1 > ts2
    else if Batch.size v1 <> Batch.size v2 then Batch.size v1 > Batch.size v2
    else p1 < p2
  in
  match ests with
  | first :: rest when List.length ests >= majority ->
    Some (snd (snd (List.fold_left (fun b e -> if better e b then e else b) first rest)))
  | _ -> None

let rounds_agree ~n m t =
  let rounds = [ 1; 2; 3 ] and pids = List.init n Fun.id in
  let same_batch = Option.equal Batch.equal in
  let by_pid l = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) l in
  List.for_all
    (fun r ->
      let proposals_ok =
        List.for_all
          (fun p ->
            same_batch
              (Hashtbl.find_opt m.m_proposals (r, p))
              (Rounds.proposal t ~round:r ~proposer:p))
          pids
      in
      let acks =
        match Hashtbl.find_opt m.m_acks r with Some slot -> List.length !slot | None -> 0
      in
      let model_ests =
        match Hashtbl.find_opt m.m_estimates r with
        | Some slot -> List.map (fun (p, (ts, v)) -> (p, ts, v)) !slot
        | None -> []
      in
      let estimates_ok =
        List.equal
          (fun (p1, ts1, v1) (p2, ts2, v2) -> p1 = p2 && ts1 = ts2 && Batch.equal v1 v2)
          (by_pid model_ests)
          (by_pid (Rounds.estimates t ~round:r))
      in
      let model_proposers =
        Hashtbl.fold (fun (r', p) _ acc -> if r' = r then p :: acc else acc) m.m_proposals []
        |> List.sort Int.compare
      in
      let majority = (n / 2) + 1 in
      let choice_ok =
        List.for_all
          (fun own ->
            same_batch
              (model_choose m ~round:r ~majority ~own)
              (Rounds.chosen_estimate t ~round:r ~majority ~own))
          (None :: List.map (fun p -> Some (p, 1, rounds_value p)) pids)
      in
      proposals_ok
      && acks = Rounds.ack_count t ~round:r
      && estimates_ok
      && model_proposers = Rounds.proposers t ~round:r
      && choice_ok)
    rounds

let pp_rounds_op = function
  | Set_proposal (r, p, v) -> Printf.sprintf "propose r%d p%d v%d" r p v
  | Add_ack (r, p) -> Printf.sprintf "ack r%d p%d" r p
  | Reset_acks (r, p) -> Printf.sprintf "reset r%d p%d" r p
  | Add_estimate (r, p, ts, v) -> Printf.sprintf "estimate r%d p%d ts%d v%d" r p ts v

let gen_rounds_case =
  let open QCheck.Gen in
  oneofl [ 3; 5; 7 ] >>= fun n ->
  let round = int_range 1 3 and pid = int_bound (n - 1) and v = int_bound 4 in
  let op =
    frequency
      [
        (3, map3 (fun r p v -> Set_proposal (r, p, v)) round pid v);
        (4, map2 (fun r p -> Add_ack (r, p)) round pid);
        (1, map2 (fun r p -> Reset_acks (r, p)) round pid);
        ( 3,
          map2 (fun (r, p) (ts, v) -> Add_estimate (r, p, ts, v)) (pair round pid)
            (pair (int_bound 3) v) );
      ]
  in
  map (fun ops -> (n, ops)) (list_size (int_bound 40) op)

let prop_rounds_model =
  QCheck.Test.make ~name:"rounds match a Hashtbl model after every step" ~count:300
    (QCheck.make gen_rounds_case ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d: %s" n (String.concat "; " (List.map pp_rounds_op ops))))
    (fun (n, ops) ->
      let m =
        { m_proposals = Hashtbl.create 4; m_acks = Hashtbl.create 4; m_estimates = Hashtbl.create 4 }
      in
      let t = Rounds.create () in
      List.for_all
        (fun op ->
          model_apply m op;
          rounds_apply t op;
          rounds_agree ~n m t)
        ops)

(* ---- Msg size model ---- *)

let test_msg_sizes () =
  let small = Batch.of_list [ mk ~size:100 0 0 ] in
  let big = Batch.of_list [ mk ~size:100 0 0; mk ~size:5000 1 0 ] in
  let size msg = Msg.payload_bytes msg in
  Alcotest.(check bool) "ack is tiny" true (size (Msg.Ack { inst = 0; round = 1 }) < 32);
  Alcotest.(check bool) "nack is tiny" true (size (Msg.Nack { inst = 0; round = 1 }) < 32);
  Alcotest.(check bool) "tag decision is tiny" true
    (size
       (Msg.Decision_tag
          { meta = { Msg.rb_origin = 0; rb_seq = 0 }; inst = 0; round = 1; value = None })
    < 64);
  Alcotest.(check bool) "proposal grows with batch" true
    (size (Msg.Propose { inst = 0; round = 1; value = big })
    > size (Msg.Propose { inst = 0; round = 1; value = small }));
  Alcotest.(check bool) "diffuse carries the payload" true
    (size (Msg.Diffuse (mk ~size:4096 0 0)) >= 4096);
  Alcotest.(check bool) "piggybacked ack carries payloads" true
    (size (Msg.Ack_diff { inst = 0; round = 1; piggyback = [ mk ~size:2048 1 0 ] })
    >= 2048);
  (* A combined proposal+decision costs barely more than the proposal:
     that is the entire point of §4.1. *)
  let prop_alone =
    size (Msg.Prop_dec { inst = 1; round = 1; proposal = big; decided = None })
  in
  let prop_with_decision =
    size (Msg.Prop_dec { inst = 1; round = 1; proposal = big; decided = Some (0, 1) })
  in
  Alcotest.(check bool) "piggybacked decision is almost free" true
    (prop_with_decision - prop_alone < 16)

let test_msg_kinds_distinct () =
  let kinds =
    List.map Msg.kind
      [
        Msg.Heartbeat;
        Msg.Diffuse (mk 0 0);
        Msg.Estimate { inst = 0; round = 1; value = Batch.empty; ts = 0 };
        Msg.Propose { inst = 0; round = 1; value = Batch.empty };
        Msg.Ack { inst = 0; round = 1 };
        Msg.Nack { inst = 0; round = 1 };
        Msg.Decision_tag
          { meta = { Msg.rb_origin = 0; rb_seq = 0 }; inst = 0; round = 1; value = None };
        Msg.New_round { inst = 0; round = 2 };
        Msg.Prop_dec { inst = 0; round = 1; proposal = Batch.empty; decided = None };
        Msg.Ack_diff { inst = 0; round = 1; piggyback = [] };
        Msg.Mono_estimate
          { inst = 0; round = 2; value = Batch.empty; ts = 0; piggyback = [] };
        Msg.Mono_decision_tag { inst = 0; round = 1 };
        Msg.To_coord (mk 0 0);
        Msg.Decision_request { inst = 0 };
        Msg.Decision_full { inst = 0; value = Batch.empty };
      ]
  in
  Alcotest.(check int) "all kinds distinct" (List.length kinds)
    (List.length (List.sort_uniq compare kinds))

let test_msg_pp_smoke () =
  (* The printers must not raise on any constructor. *)
  List.iter
    (fun msg -> ignore (Fmt.str "%a" Msg.pp msg))
    [
      Msg.Heartbeat;
      Msg.Diffuse (mk 0 0);
      Msg.Prop_dec
        {
          inst = 3;
          round = 1;
          proposal = Batch.of_list [ mk 0 0 ];
          decided = Some (2, 1);
        };
      Msg.Mono_estimate
        { inst = 0; round = 2; value = Batch.empty; ts = 1; piggyback = [ mk 1 4 ] };
    ]

(* ---- Params ---- *)

let test_params_coordinator_rotation () =
  let p = Params.default ~n:3 in
  Alcotest.(check int) "round 1 -> p1" 0 (Params.coordinator p ~round:1);
  Alcotest.(check int) "round 2 -> p2" 1 (Params.coordinator p ~round:2);
  Alcotest.(check int) "round 3 -> p3" 2 (Params.coordinator p ~round:3);
  Alcotest.(check int) "round 4 wraps to p1" 0 (Params.coordinator p ~round:4);
  Alcotest.check_raises "round 0 invalid"
    (Invalid_argument "Params.coordinator: rounds start at 1") (fun () ->
      ignore (Params.coordinator p ~round:0))

let test_params_majority () =
  Alcotest.(check int) "n=3" 2 (Params.majority (Params.default ~n:3));
  Alcotest.(check int) "n=4" 3 (Params.majority (Params.default ~n:4));
  Alcotest.(check int) "n=7" 4 (Params.majority (Params.default ~n:7))

(* ---- Flow control ---- *)

let test_flow_control () =
  let f = Flow_control.create ~window:2 in
  Alcotest.(check bool) "room initially" true (Flow_control.has_room f);
  Flow_control.acquire f;
  Flow_control.acquire f;
  Alcotest.(check bool) "full" false (Flow_control.has_room f);
  Alcotest.(check int) "in flight" 2 (Flow_control.in_flight f);
  Alcotest.check_raises "over-acquire rejected"
    (Invalid_argument "Flow_control.acquire: window full") (fun () ->
      Flow_control.acquire f);
  let drained = ref 0 in
  Flow_control.set_on_space f (fun () -> incr drained);
  Flow_control.release f;
  Alcotest.(check int) "drain callback ran" 1 !drained;
  Alcotest.(check bool) "room again" true (Flow_control.has_room f);
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Flow_control.create: window must be >= 1") (fun () ->
      ignore (Flow_control.create ~window:0))

(* ---- Order checker ---- *)

let id origin seq = { App_msg.origin; seq }

let test_checker_accepts_total_order () =
  let c = Order_checker.create ~n:3 in
  List.iter
    (fun pid ->
      Order_checker.observe c pid (id 0 0);
      Order_checker.observe c pid (id 1 0))
    [ 0; 1; 2 ];
  Alcotest.(check (list string)) "no violations" []
    (List.map (Fmt.str "%a" Order_checker.pp_violation) (Order_checker.violations c));
  Alcotest.(check int) "common prefix" 2 (Order_checker.common_prefix_length c);
  Alcotest.(check (list int)) "nobody lagging" [] (Order_checker.lagging c)

let test_checker_detects_divergence () =
  let c = Order_checker.create ~n:2 in
  Order_checker.observe c 0 (id 0 0);
  Order_checker.observe c 0 (id 1 0);
  Order_checker.observe c 1 (id 1 0);
  (* p2 delivered id(1,0) first: order divergence at position 0 *)
  Alcotest.(check int) "one violation" 1 (List.length (Order_checker.violations c));
  Alcotest.(check (list int)) "p2 lagging" [ 1 ] (Order_checker.lagging c)

let test_checker_detects_duplicate () =
  let c = Order_checker.create ~n:1 in
  Order_checker.observe c 0 (id 0 0);
  Order_checker.observe c 0 (id 0 0);
  match Order_checker.violations c with
  | [ v ] ->
    Alcotest.(check bool) "describes duplicate" true
      (String.length v.Order_checker.description > 0)
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other)

let test_checker_attached_to_group () =
  let params = Params.default ~n:3 in
  let g = Group.create ~kind:Replica.Monolithic ~params () in
  let c = Order_checker.create ~n:3 in
  Order_checker.attach c g;
  for i = 0 to 19 do
    Group.abcast g (i mod 3) ~size:128
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 30) ());
  Alcotest.(check int) "no violations in a good run" 0
    (List.length (Order_checker.violations c));
  Alcotest.(check (list int)) "delivered everywhere" [ 20; 20; 20 ]
    (Array.to_list (Order_checker.delivered_counts c))

let () =
  Alcotest.run "core-types"
    [
      ( "app-msg",
        [
          Alcotest.test_case "identity order" `Quick test_app_msg_identity;
        ] );
      ( "batch",
        [
          Alcotest.test_case "canonical form" `Quick test_batch_canonical;
          Alcotest.test_case "operations" `Quick test_batch_operations;
          QCheck_alcotest.to_alcotest prop_batch_sorted;
          QCheck_alcotest.to_alcotest prop_batch_matches_map;
        ] );
      ("msg-table", [ QCheck_alcotest.to_alcotest prop_msg_table_model ]);
      ("rounds", [ QCheck_alcotest.to_alcotest prop_rounds_model ]);
      ( "msg",
        [
          Alcotest.test_case "size model" `Quick test_msg_sizes;
          Alcotest.test_case "kinds distinct" `Quick test_msg_kinds_distinct;
          Alcotest.test_case "printers total" `Quick test_msg_pp_smoke;
        ] );
      ( "params",
        [
          Alcotest.test_case "coordinator rotation" `Quick test_params_coordinator_rotation;
          Alcotest.test_case "majority" `Quick test_params_majority;
        ] );
      ("flow-control", [ Alcotest.test_case "window" `Quick test_flow_control ]);
      ( "order-checker",
        [
          Alcotest.test_case "accepts a total order" `Quick test_checker_accepts_total_order;
          Alcotest.test_case "detects divergence" `Quick test_checker_detects_divergence;
          Alcotest.test_case "detects duplicates" `Quick test_checker_detects_duplicate;
          Alcotest.test_case "attached to a group" `Quick test_checker_attached_to_group;
        ] );
    ]
