module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
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

type intro_plan = {
  iv : int;  (* the introduced pattern node *)
  ipos : int;  (* its position in this node's bag *)
  self_loop : bool;
  cons : (int * bool * bool) array;
      (* (child-bag position of w, v->w edge, w->v edge) for each bag
         co-member [w] adjacent to [iv] — the only edge checks this node
         performs; a valid decomposition covers every edge this way *)
}

type plan =
  | P_leaf
  | P_intro of intro_plan
  | P_forget of { fpos : int; fv : int }  (* position in child bag, vertex *)
  | P_join

let pos_of v bag =
  let p = ref (-1) in
  Array.iteri (fun i x -> if x = v then p := i) bag;
  assert (!p >= 0);
  !p

let plans g1 (nt : T.nice) =
  Array.init
    (Array.length nt.T.nkind)
    (fun i ->
      match nt.T.nkind.(i) with
      | T.Leaf -> P_leaf
      | T.Join -> P_join
      | T.Forget v ->
          let cbag = nt.T.nbags.(nt.T.nchildren.(i).(0)) in
          P_forget { fpos = pos_of v cbag; fv = v }
      | T.Introduce v ->
          let cbag = nt.T.nbags.(nt.T.nchildren.(i).(0)) in
          let cons = ref [] in
          Array.iteri
            (fun j w ->
              let fwd = D.has_edge g1 v w and bwd = D.has_edge g1 w v in
              if fwd || bwd then cons := (j, fwd, bwd) :: !cons)
            cbag;
          P_intro
            {
              iv = v;
              ipos = pos_of v nt.T.nbags.(i);
              self_loop = D.has_edge g1 v v;
              cons = Array.of_list (List.rev !cons);
            })

(* keys are bag assignments: data-node ids in bag position order, [-1]
   meaning "unmapped" (optimisation only) *)

let key_insert key pos u =
  let n = Array.length key in
  let out = Array.make (n + 1) u in
  Array.blit key 0 out 0 pos;
  Array.blit key pos out (pos + 1) (n - pos);
  out

let key_remove key pos =
  let n = Array.length key in
  let out = Array.make (n - 1) 0 in
  Array.blit key 0 out 0 pos;
  Array.blit key (pos + 1) out pos (n - 1 - pos);
  out

let compatible tc2 (p : intro_plan) key u =
  ((not p.self_loop) || BM.get tc2 u u)
  && Array.for_all
       (fun (j, fwd, bwd) ->
         let u' = key.(j) in
         u' < 0
         || (((not fwd) || BM.get tc2 u u')
            && ((not bwd) || BM.get tc2 u' u)))
       p.cons

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

(* what [solve] and [count] do differently, row by row *)
type 'a ops = {
  unmapped : bool;  (* an introduced node may also stay unmapped *)
  leaf : 'a;  (* the empty assignment's row *)
  gain : int -> int -> 'a -> 'a;
      (* [gain v u x]: a row [x] extended by [v ↦ u], [u = -1] for unmapped *)
  merge : 'a -> 'a -> 'a;
      (* forget: the kept row and another child row that lands on its key;
         returning the kept row itself leaves the table untouched *)
  join : int array -> int array -> 'a -> 'a -> 'a;
      (* [join bag key x1 x2]: the two subtree rows agreeing on [key] *)
}

(* node ids are a bottom-up order (children first), so one loop fills
   every table; a trip raises [Budget.Exhausted_budget] out of it *)
let tables ops budget ~tc2 ~cands np (nt : T.nice) =
  let tables = Array.make (Array.length np) (Hashtbl.create 0) in
  Array.iteri
    (fun node plan ->
      let rows = ref 0 in
      let row () =
        Budget.tick_exn budget;
        incr rows
      in
      let child k = tables.(nt.T.nchildren.(node).(k)) in
      let t =
        match plan with
        | P_leaf ->
            let t = Hashtbl.create 1 in
            row ();
            Hashtbl.replace t [||] ops.leaf;
            t
        | P_intro p ->
            let ct = child 0 in
            let t = Hashtbl.create (2 * (Hashtbl.length ct + 1)) in
            let emit key x u =
              row ();
              Hashtbl.replace t (key_insert key p.ipos u) (ops.gain p.iv u x)
            in
            Hashtbl.iter
              (fun key x ->
                if ops.unmapped then emit key x (-1);
                Array.iter
                  (fun u -> if compatible tc2 p key u then emit key x u)
                  cands.(p.iv))
              ct;
            t
        | P_forget { fpos; _ } ->
            let ct = child 0 in
            let t = Hashtbl.create (Hashtbl.length ct + 1) in
            Hashtbl.iter
              (fun key x ->
                row ();
                let key' = key_remove key fpos in
                match Hashtbl.find_opt t key' with
                | None -> Hashtbl.replace t key' x
                | Some kept ->
                    let m = ops.merge kept x in
                    if m != kept then Hashtbl.replace t key' m)
              ct;
            t
        | P_join ->
            Obs.incr m_joins;
            let t1 = child 0 and t2 = child 1 in
            let bag = nt.T.nbags.(node) in
            let t = Hashtbl.create (Hashtbl.length t1 + 1) in
            Hashtbl.iter
              (fun key x1 ->
                row ();
                match Hashtbl.find_opt t2 key with
                | None -> ()
                | Some x2 -> Hashtbl.replace t key (ops.join bag key x1 x2))
              t1;
            t
      in
      Obs.add m_rows !rows;
      tables.(node) <- t)
    np;
  tables

(* ---------------------------------------------------------------- *)
(* Optimisation                                                     *)
(* ---------------------------------------------------------------- *)

let solve ?budget ~g1 ~tc2 ~cands ~pair_value (nt : T.nice) =
  Obs.span "dp" @@ fun () ->
  let budget = resolve_budget budget in
  observe_shape nt;
  let np = plans g1 nt in
  let ops =
    {
      (* leaving a node unmapped is always allowed: the DP optimises over
         partial mappings, matching the B&B's "skip" branch *)
      unmapped = true;
      leaf = 0.;
      gain = (fun v u x -> x +. (if u < 0 then 0. else pair_value v u));
      merge = (fun kept x -> if kept >= x then kept else x);
      join =
        (fun bag key x1 x2 ->
          (* both subtree values include the bag's own gain *)
          let bagv = ref 0. in
          Array.iteri
            (fun j u -> if u >= 0 then bagv := !bagv +. pair_value bag.(j) u)
            key;
          x1 +. x2 -. !bagv);
    }
  in
  match tables ops budget ~tc2 ~cands np nt with
  | exception Budget.Exhausted_budget ->
      (* tables died with the budget; the empty mapping is the one
         witness we can still vouch for *)
      { mapping = []; value = 0.; status = Budget.status budget }
  | tables ->
      let value = Hashtbl.find tables.(nt.T.root) [||] in
      let chosen = Hashtbl.create 16 in
      (* top-down over the stored tables; at a forget, rediscover the
         extension that produced the kept maximum. Scan order (unmapped
         first, then candidates in row order) fixes ties independently of
         any hashtable iteration order. *)
      let rec walk node key =
        match np.(node) with
        | P_leaf -> ()
        | P_intro p ->
            let u = key.(p.ipos) in
            if u >= 0 then Hashtbl.replace chosen p.iv u;
            walk nt.T.nchildren.(node).(0) (key_remove key p.ipos)
        | P_forget { fpos; fv } ->
            let target = Hashtbl.find tables.(node) key in
            let ct = tables.(nt.T.nchildren.(node).(0)) in
            let hit = ref (-2) in
            let try_ext u =
              if !hit = -2 then
                match Hashtbl.find_opt ct (key_insert key fpos u) with
                | Some v when v = target -> hit := u
                | _ -> ()
            in
            try_ext (-1);
            Array.iter try_ext cands.(fv);
            assert (!hit > -2);
            walk nt.T.nchildren.(node).(0) (key_insert key fpos !hit)
        | P_join ->
            walk nt.T.nchildren.(node).(0) key;
            walk nt.T.nchildren.(node).(1) key
      in
      walk nt.T.root [||];
      let mapping =
        List.sort compare (Hashtbl.fold (fun v u acc -> (v, u) :: acc) chosen [])
      in
      { mapping; value; status = Budget.Complete }

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
      leaf = 1;
      gain = (fun _ _ c -> c);
      merge = add_sat sat;
      (* the forgotten-below vertex sets of the two subtrees are disjoint,
         so extensions multiply *)
      join = (fun _ _ c1 c2 -> mul_sat sat c1 c2);
    }
  in
  match tables ops budget ~tc2 ~cands (plans g1 nt) nt with
  | exception Budget.Exhausted_budget ->
      (* a partial count is not an anytime answer: report zero, flag it
         inexact, and let the status say why. Never cache this. *)
      { count = 0; exact = false; status = Budget.status budget }
  | tables ->
      let count =
        match Hashtbl.find_opt tables.(nt.T.root) [||] with
        | Some c -> c
        | None -> 0
      in
      { count; exact = not !sat; status = Budget.Complete }
