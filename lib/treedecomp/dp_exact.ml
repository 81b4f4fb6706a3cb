module D = Phom_graph.Digraph
module Fit = Phom_graph.Fit
module Budget = Phom_graph.Budget
module Obs = Phom_obs.Obs
module T = Treedecomp

type outcome = {
  mapping : (int * int) list;
  value : float;
  status : Budget.status;
}

type count_outcome = { count : int; exact : bool; status : Budget.status }

(* same safety net as the assignment-tree solver: callers who pass no
   budget still terminate on hostile inputs *)
let default_budget () = Budget.create ~steps:5_000_000 ()

let resolve_budget = function Some b -> b | None -> default_budget ()

(* ---------------------------------------------------------------- *)
(* Per-node plans                                                   *)
(* ---------------------------------------------------------------- *)

(* [edges]: [iv]'s edges to its child-bag co-members as {!Fit} takes
   them (position in the child bag, candidate row, whether the edge
   leaves [iv]); a valid decomposition covers every pattern edge so *)
type intro_plan = {
  iv : int;  (* the introduced pattern node *)
  ipos : int;  (* its position in this node's bag *)
  edges : (int * int array * bool) array;
}

type plan =
  | P_leaf
  | P_intro of intro_plan
  | P_forget of { fpos : int }  (* the vertex's position in the child bag *)
  | P_join

let pos_of v bag =
  let p = ref (-1) in
  Array.iteri (fun i x -> if x = v then p := i) bag;
  assert (!p >= 0);
  !p

let plans g1 ~cands (nt : T.nice) =
  Array.init
    (Array.length nt.T.nkind)
    (fun i ->
      match nt.T.nkind.(i) with
      | T.Leaf -> P_leaf
      | T.Join -> P_join
      | T.Forget v ->
          P_forget { fpos = pos_of v nt.T.nbags.(nt.T.nchildren.(i).(0)) }
      | T.Introduce v ->
          let cbag = nt.T.nbags.(nt.T.nchildren.(i).(0)) in
          let edges = ref [] in
          Array.iteri
            (fun j w ->
              if D.has_edge g1 v w then edges := (j, cands.(w), true) :: !edges;
              if D.has_edge g1 w v then edges := (j, cands.(w), false) :: !edges)
            cbag;
          P_intro
            { iv = v; ipos = pos_of v nt.T.nbags.(i); edges = Array.of_list !edges })

(* ---------------------------------------------------------------- *)
(* Tables: flat rows                                                *)
(* ---------------------------------------------------------------- *)

(* One nice-tree node's rows, numbered in the order they are made. Row
   [r]'s bag assignment is the run [keys.(r * width) .. keys.(r * width +
   width - 1)]: per bag position, the position of its data node in that
   pattern node's candidate row, [-1] meaning "unmapped" (optimisation
   only). [vals] holds the row values in the row operations' own typed
   array. [index] maps a key to its row by open addressing (linear
   probing, at most half full) and exists only while something probes the
   table. [from] holds, one int per row, what solve's traceback follows:
   the child row a forget row came from; an introduce row's child row [cr]
   and the introduced node's candidate position [ci] as [cr * (|cands| +
   1) + ci + 1]; a join row's left and right rows as [lr * right rows +
   rr]. Both factors are row counts or candidate counts, far below 2^31
   in any table that fits in memory, so the product fits an [int]. *)
type 'v table = {
  width : int;
  mutable rows : int;
  mutable cap : int;
  mutable keys : int array;
  mutable vals : 'v;
  mutable index : int array;
  mutable from : int array;
}

(* a "no position" for [skip] below *)
let whole = max_int

(* the hash of the key at [off] in [keys], [n] positions with position
   [skip] left out, so a forget probes with its child's key in place; the
   multiplier is xorshift64*'s, and the final shift folds high bits into
   the low ones a power-of-two index reads *)
let hash keys off n skip =
  let h = ref 0 in
  for j = 0 to n - 1 do
    if j <> skip then h := (!h lxor keys.(off + j)) * 0x2545F4914F6CDD1D
  done;
  !h lxor (!h lsr 32)

(* does row [r] of [t] hold the key at [off] in [keys], read with position
   [skip] left out? *)
let same t r keys off skip =
  let base = r * t.width in
  let j = ref 0 in
  while
    !j < t.width
    && t.keys.(base + !j) = keys.(off + if !j < skip then !j else !j + 1)
  do
    incr j
  done;
  !j = t.width

(* the slot of [t.index] that holds the row with that key, or the free
   slot where it belongs *)
let slot t keys off n skip =
  let mask = Array.length t.index - 1 in
  let s = ref (hash keys off n skip land mask) in
  while
    let r = t.index.(!s) in
    r >= 0 && not (same t r keys off skip)
  do
    s := (!s + 1) land mask
  done;
  !s

(* (re)build [t.index] with [size] slots, a power of two above twice the
   rows *)
let reindex t size =
  let index = Array.make size (-1) and mask = size - 1 in
  for r = 0 to t.rows - 1 do
    let s = ref (hash t.keys (r * t.width) t.width whole land mask) in
    while index.(!s) >= 0 do
      s := (!s + 1) land mask
    done;
    index.(!s) <- r
  done;
  t.index <- index

let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

(* [n] ints from [src] at [s] to [dst] at [d]: a loop, since [Array.blit]
   is a C call, dear for the few ints of a key *)
let copy src s dst d n =
  for j = 0 to n - 1 do
    dst.(d + j) <- src.(s + j)
  done

(* ---------------------------------------------------------------- *)
(* The table pass: every nice-tree node, bottom-up, one tick a row   *)
(* ---------------------------------------------------------------- *)

let m_rows = Obs.counter "phom_dp_table_rows_total"
let m_joins = Obs.counter "phom_dp_joins_total"
let m_bags = Obs.counter "phom_dp_bags_total"

let width_hist () =
  Obs.histogram
    ~buckets:[| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16. |]
    "phom_dp_width"

let observe_shape (nt : T.nice) =
  Obs.add m_bags (Array.length nt.T.nkind);
  Obs.observe (width_hist ()) (float_of_int (max 0 nt.T.nwidth))

(* what [solve] and [count] do differently, row by row. Each keeps its row
   values in its own typed array ['v] and reads and writes them by row id,
   so no value crosses the pass boxed. *)
type 'v ops = {
  unmapped : bool;  (* an introduced node may also stay unmapped *)
  traced : bool;  (* keep [from] for a traceback *)
  empty : 'v;
  grow : 'v -> int -> int -> 'v;
      (* [grow a rows cap]: a [cap]-row array holding [a]'s first [rows] *)
  leaf : 'v -> int -> unit;  (* the empty assignment's row *)
  intro : 'v -> int -> 'v -> int -> int -> int -> unit;
      (* [intro a r c cr v ci]: row [r] is child row [cr] extended by
         [v ↦] its candidate [ci], [-1] for unmapped *)
  first : 'v -> int -> 'v -> int -> unit;
      (* forget: child row [cr] is the first to land on row [r] *)
  merge : 'v -> int -> 'v -> int -> bool -> bool;
      (* forget: another child row [cr] lands on row [r]; the flag says
         whether its forgotten assignment comes before that of [r]'s
         source in the order "unmapped, then the candidates in row order".
         [true] when [cr] becomes [r]'s source. *)
  join : 'v -> int -> 'v -> int -> 'v -> int -> int array -> int array -> int -> unit;
      (* [join a r l lr rt rr bag keys off]: row [r], whose key is at [off]
         in [keys], joins left row [lr] and right row [rr] *)
}

(* a fresh row at the end of [t], its arrays grown by doubling *)
let add ops t =
  let r = t.rows in
  if r = t.cap then begin
    let cap = max 1 (2 * t.cap) in
    let grow a k =
      let b = Array.make (cap * k) 0 in
      Array.blit a 0 b 0 (r * k);
      b
    in
    t.keys <- grow t.keys t.width;
    t.from <- grow t.from (if ops.traced then 1 else 0);
    t.vals <- ops.grow t.vals r cap;
    t.cap <- cap
  end;
  t.rows <- r + 1;
  r

(* node ids are a bottom-up order (children first), so one loop fills
   every table, and a table's rows are read only while its parent is
   built: after that only [from] is kept, and only for a traceback. A trip
   raises [Budget.Exhausted_budget] out of the loop. *)
let tables ops budget ~tc2 ~cands np (nt : T.nice) =
  let n = Array.length np in
  let tables =
    Array.init n (fun node ->
        {
          width = Array.length nt.T.nbags.(node);
          rows = 0;
          cap = 0;
          keys = [||];
          vals = ops.empty;
          index = [||];
          from = [||];
        })
  in
  (* a join probes its right child by key *)
  let probed = Array.make n false in
  Array.iteri
    (fun node -> function
      | P_join -> probed.(nt.T.nchildren.(node).(1)) <- true | _ -> ())
    np;
  Array.iteri
    (fun node plan ->
      let t = tables.(node) and w = tables.(node).width in
      let child k = tables.(nt.T.nchildren.(node).(k)) in
      (* the rows ticked: emitted ones at a leaf or an introduce, child
         rows at a forget, left rows at a join *)
      let ticked =
        match plan with
        | P_leaf ->
            Budget.tick_exn budget;
            ops.leaf t.vals (add ops t);
            1
        | P_intro p ->
            let c = child 0 in
            let cw = c.width and cand = cands.(p.iv) in
            let stride = Array.length cand + 1 in
            (* made here, so its masks go with this node *)
            let fit = Fit.make ~tc2 cand p.edges in
            let emit cr ci =
              Budget.tick_exn budget;
              let r = add ops t in
              let off = r * w and coff = cr * cw in
              copy c.keys coff t.keys off p.ipos;
              t.keys.(off + p.ipos) <- ci;
              copy c.keys (coff + p.ipos) t.keys (off + p.ipos + 1) (cw - p.ipos);
              ops.intro t.vals r c.vals cr p.iv ci;
              if ops.traced then t.from.(r) <- (cr * stride) + ci + 1
            in
            for cr = 0 to c.rows - 1 do
              if ops.unmapped then emit cr (-1);
              Fit.iter fit c.keys (cr * cw) (emit cr)
            done;
            t.rows
        | P_forget { fpos } ->
            let c = child 0 in
            let cw = c.width in
            reindex t 2;
            for cr = 0 to c.rows - 1 do
              Budget.tick_exn budget;
              let coff = cr * cw in
              let s = slot t c.keys coff cw fpos in
              let kept = t.index.(s) in
              if kept < 0 then begin
                let r = add ops t in
                copy c.keys coff t.keys (r * w) fpos;
                copy c.keys (coff + fpos + 1) t.keys ((r * w) + fpos) (w - fpos);
                ops.first t.vals r c.vals cr;
                if ops.traced then t.from.(r) <- cr;
                t.index.(s) <- r;
                if 2 * t.rows >= Array.length t.index then
                  reindex t (2 * Array.length t.index)
              end
              else begin
                let earlier =
                  ops.traced
                  && c.keys.(coff + fpos) < c.keys.((t.from.(kept) * cw) + fpos)
                in
                if ops.merge t.vals kept c.vals cr earlier && ops.traced then
                  t.from.(kept) <- cr
              end
            done;
            if not probed.(node) then t.index <- [||];
            c.rows
        | P_join ->
            Obs.incr m_joins;
            let l = child 0 and rt = child 1 in
            if Array.length rt.index = 0 then reindex rt (pow2_above (2 * rt.rows) 1);
            let bag = nt.T.nbags.(node) in
            for lr = 0 to l.rows - 1 do
              Budget.tick_exn budget;
              let rr = rt.index.(slot rt l.keys (lr * w) w whole) in
              if rr >= 0 then begin
                let r = add ops t in
                copy l.keys (lr * w) t.keys (r * w) w;
                ops.join t.vals r l.vals lr rt.vals rr bag t.keys (r * w);
                if ops.traced then t.from.(r) <- (lr * rt.rows) + rr
              end
            done;
            l.rows
      in
      Obs.add m_rows ticked;
      (* nothing reads the children's rows again *)
      Array.iter
        (fun c ->
          let c = tables.(c) in
          c.keys <- [||];
          c.vals <- ops.empty;
          c.index <- [||])
        nt.T.nchildren.(node);
      if Array.length t.from > t.rows then t.from <- Array.sub t.from 0 t.rows)
    np;
  tables

(* ---------------------------------------------------------------- *)
(* Optimisation                                                     *)
(* ---------------------------------------------------------------- *)

let solve ?budget ~g1 ~tc2 ~cands ~pair_value (nt : T.nice) =
  Obs.span "dp" @@ fun () ->
  let budget = resolve_budget budget in
  observe_shape nt;
  let np = plans g1 ~cands nt in
  (* [gains.(v).(ci)]: the gain of [v ↦ cands.(v).(ci)] *)
  let gains = Array.mapi (fun v row -> Array.map (pair_value v) row) cands in
  let ops =
    {
      (* leaving a node unmapped is always allowed: the DP optimises over
         partial mappings, matching the B&B's "skip" branch *)
      unmapped = true;
      traced = true;
      empty = [||];
      grow =
        (fun a rows cap ->
          let b = Array.create_float cap in
          Array.blit a 0 b 0 rows;
          b);
      leaf = (fun a r -> a.(r) <- 0.);
      intro =
        (fun a r c cr v ci ->
          a.(r) <- c.(cr) +. (if ci < 0 then 0. else gains.(v).(ci)));
      first = (fun a r c cr -> a.(r) <- c.(cr));
      (* the higher value wins; of two equal ones, the earlier assignment,
         so the witness does not depend on the order rows arrive in *)
      merge =
        (fun a r c cr earlier ->
          let x = c.(cr) in
          if x > a.(r) || (x = a.(r) && earlier) then begin
            a.(r) <- x;
            true
          end
          else false);
      join =
        (fun a r l lr rt rr bag keys off ->
          (* both subtree values include the bag's own gain *)
          let bagv = ref 0. in
          for j = 0 to Array.length bag - 1 do
            let ci = keys.(off + j) in
            if ci >= 0 then bagv := !bagv +. gains.(bag.(j)).(ci)
          done;
          a.(r) <- l.(lr) +. rt.(rr) -. !bagv);
    }
  in
  match tables ops budget ~tc2 ~cands np nt with
  | exception Budget.Exhausted_budget ->
      (* tables died with the budget; the empty mapping is the one
         witness we can still vouch for *)
      { mapping = []; value = 0.; status = Budget.status budget }
  | tables ->
      let root = nt.T.root in
      let chosen = Array.make (D.n g1) (-1) in
      (* top-down from the root's one row along the rows each came from *)
      let rec walk node r =
        let x = tables.(node).from.(r) and kids = nt.T.nchildren.(node) in
        match np.(node) with
        | P_leaf -> ()
        | P_intro p ->
            let stride = Array.length cands.(p.iv) + 1 in
            let ci = (x mod stride) - 1 in
            if ci >= 0 then chosen.(p.iv) <- cands.(p.iv).(ci);
            walk kids.(0) (x / stride)
        | P_forget _ -> walk kids.(0) x
        | P_join ->
            let right = tables.(kids.(1)).rows in
            walk kids.(0) (x / right);
            walk kids.(1) (x mod right)
      in
      walk root 0;
      let mapping = ref [] in
      for v = Array.length chosen - 1 downto 0 do
        if chosen.(v) >= 0 then mapping := (v, chosen.(v)) :: !mapping
      done;
      { mapping = !mapping; value = tables.(root).vals.(0); status = Budget.Complete }

(* ---------------------------------------------------------------- *)
(* Counting                                                         *)
(* ---------------------------------------------------------------- *)

(* counts saturate instead of wrapping: homomorphism counts explode
   combinatorially, and a clamped count with [exact = false] beats a
   silently negative one *)
let add_sat sat a b =
  if a > max_int - b then begin
    sat := true;
    max_int
  end
  else a + b

let mul_sat sat a b =
  if a > 0 && b > max_int / a then begin
    sat := true;
    max_int
  end
  else a * b

let count ?budget ~g1 ~tc2 ~cands (nt : T.nice) =
  Obs.span "dp" @@ fun () ->
  let budget = resolve_budget budget in
  observe_shape nt;
  let sat = ref false in
  let ops =
    {
      unmapped = false;  (* total mappings only *)
      traced = false;
      empty = [||];
      grow =
        (fun a rows cap ->
          let b = Array.make cap 0 in
          Array.blit a 0 b 0 rows;
          b);
      leaf = (fun a r -> a.(r) <- 1);
      intro = (fun a r c cr _ _ -> a.(r) <- c.(cr));
      first = (fun a r c cr -> a.(r) <- c.(cr));
      merge =
        (fun a r c cr _ ->
          a.(r) <- add_sat sat a.(r) c.(cr);
          false);
      (* the forgotten-below vertex sets of the two subtrees are disjoint,
         so extensions multiply *)
      join = (fun a r l lr rt rr _ _ _ -> a.(r) <- mul_sat sat l.(lr) rt.(rr));
    }
  in
  match tables ops budget ~tc2 ~cands (plans g1 ~cands nt) nt with
  | exception Budget.Exhausted_budget ->
      (* a partial count is not an anytime answer: report zero, flag it
         inexact, and let the status say why. Never cache this. *)
      { count = 0; exact = false; status = Budget.status budget }
  | tables ->
      let root = tables.(nt.T.root) in
      let count = if root.rows > 0 then root.vals.(0) else 0 in
      { count; exact = not !sat; status = Budget.Complete }
