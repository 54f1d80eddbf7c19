(* Per-origin rows of slots indexed by the dense per-origin [seq]. A row
   keeps [slots.(i)] for seq [base + i]; a slot is live exactly when the
   message it holds has that seq, so an empty slot holds [vacant], whose
   seq (-1) no slot index can match. [lo, hi) brackets the live seqs of a
   row (lo = hi = base when it has none); [take] and [to_list] walk only
   that window. A row re-bases onto its window when a new seq falls
   outside its array: in place while the array is between two and eight
   times the window, else into a fresh power-of-two array twice the
   window's size. Memory follows the window, not the run length. *)

type row = {
  mutable base : int;
  mutable slots : App_msg.t array;
  mutable lo : int;
  mutable hi : int;
  mutable count : int;
}

type t = { rows : row array; mutable size : int }

let vacant = App_msg.make ~origin:0 ~seq:(-1) ~size:0 ~abcast_at:Repro_sim.Time.zero

let create ~n =
  { rows = Array.init n (fun _ -> { base = 0; slots = [||]; lo = 0; hi = 0; count = 0 }); size = 0 }

let size t = t.size
let is_empty t = t.size = 0

let[@inline] live row s =
  s >= row.lo && s < row.hi && row.slots.(s - row.base).App_msg.id.App_msg.seq = s

(* Room for seqs [lo, hi), a range covering the row's live window. *)
let fit row lo hi =
  let cap = Array.length row.slots in
  if lo < row.base || hi > row.base + cap then begin
    let need = hi - lo in
    let c = ref 16 in
    while !c < 2 * need do
      c := 2 * !c
    done;
    if !c <= cap && 4 * !c > cap then begin
      (* Shift the live window in place, then clear the cells it left. *)
      if row.count > 0 then begin
        let ol = row.lo - row.base and oh = row.hi - row.base in
        let nl = row.lo - lo in
        let nh = nl + (oh - ol) in
        Array.blit row.slots ol row.slots nl (oh - ol);
        if nl > ol then Array.fill row.slots ol (min oh nl - ol) vacant
        else Array.fill row.slots (max ol nh) (oh - max ol nh) vacant
      end;
      row.base <- lo
    end
    else begin
      let slots = Array.make !c vacant in
      if row.count > 0 then
        Array.blit row.slots (row.lo - row.base) slots (row.lo - lo) (row.hi - row.lo);
      row.slots <- slots;
      row.base <- lo
    end
  end

let add t (m : App_msg.t) =
  let s = m.App_msg.id.App_msg.seq in
  if s < 0 then invalid_arg "Msg_table.add: negative seq";
  let row = t.rows.(m.App_msg.id.App_msg.origin) in
  if live row s then row.slots.(s - row.base) <- m
  else begin
    let lo, hi = if row.count = 0 then (s, s + 1) else (min row.lo s, max row.hi (s + 1)) in
    fit row lo hi;
    row.slots.(s - row.base) <- m;
    row.lo <- lo;
    row.hi <- hi;
    row.count <- row.count + 1;
    t.size <- t.size + 1
  end

let remove t (id : App_msg.id) =
  let row = t.rows.(id.App_msg.origin) and s = id.App_msg.seq in
  if live row s then begin
    row.slots.(s - row.base) <- vacant;
    row.count <- row.count - 1;
    t.size <- t.size - 1;
    if row.count = 0 then begin
      row.lo <- row.base;
      row.hi <- row.base
    end
    else begin
      while not (live row row.lo) do
        row.lo <- row.lo + 1
      done;
      while not (live row (row.hi - 1)) do
        row.hi <- row.hi - 1
      done
    end
  end

let find_opt t (id : App_msg.id) =
  let row = t.rows.(id.App_msg.origin) and s = id.App_msg.seq in
  if live row s then Some row.slots.(s - row.base) else None

let mem t (id : App_msg.id) = live t.rows.(id.App_msg.origin) id.App_msg.seq

let take t ~cap =
  let k = min cap t.size in
  if k <= 0 then Batch.empty
  else begin
    let out = Array.make k vacant in
    let j = ref 0 in
    Array.iter
      (fun row ->
        let s = ref row.lo in
        while !j < k && !s < row.hi do
          let m = row.slots.(!s - row.base) in
          if m.App_msg.id.App_msg.seq = !s then begin
            out.(!j) <- m;
            incr j
          end;
          incr s
        done)
      t.rows;
    Batch.of_array out
  end

let to_list t =
  let acc = ref [] in
  for o = Array.length t.rows - 1 downto 0 do
    let row = t.rows.(o) in
    for s = row.hi - 1 downto row.lo do
      let m = row.slots.(s - row.base) in
      if m.App_msg.id.App_msg.seq = s then acc := m :: !acc
    done
  done;
  !acc

let assign ~from t =
  if Array.length t.rows <> Array.length from.rows then
    invalid_arg "Msg_table.assign: group size mismatch";
  Array.iteri (fun i r -> t.rows.(i) <- { r with slots = Array.copy r.slots }) from.rows;
  t.size <- from.size
