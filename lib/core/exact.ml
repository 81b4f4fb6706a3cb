module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat

type objective = Cardinality | Similarity of float array

type outcome = { mapping : Mapping.t; status : Budget.status }

let pair_value objective (t : Instance.t) v u =
  match objective with
  | Cardinality -> 1.
  | Similarity w -> w.(v) *. Simmat.get t.mat v u

(* preserve the historical safety net: an un-budgeted call still stops after
   5M search nodes rather than running away on an adversarial instance *)
let resolve_budget = function
  | Some b -> b
  | None -> Budget.create ~steps:5_000_000 ()

(* what the search walks: the pattern nodes scarcest candidate row first
   (fail early, prune hard), and [suffix.(k)], the most value positions
   [k..] of [order] can still add *)
type plan = {
  objective : objective;
  cands : int array array;
  order : int array;
  suffix : float array;
}

let plan ~objective cands (t : Instance.t) =
  let n1 = D.n t.g1 in
  let order = Array.init n1 Fun.id in
  Array.sort
    (fun a b -> compare (Array.length cands.(a)) (Array.length cands.(b)))
    order;
  let suffix = Array.make (n1 + 1) 0. in
  for k = n1 - 1 downto 0 do
    let v = order.(k) in
    suffix.(k) <-
      suffix.(k + 1)
      +. Array.fold_left
           (fun acc u -> Float.max acc (pair_value objective t v u))
           0. cands.(v)
  done;
  { objective; cands; order; suffix }

(* The one assignment-tree branch and bound. At depth [k], node [order.(k)]
   takes each candidate consistent under [tc2] with the nodes placed so far
   (and unused, when [injective]), then stays unmapped unless [total]. Every
   search node ticks [budget] once. [cut bound] prunes a subtree whose
   [bound] (the value so far plus [suffix.(k)]) cannot pay; [leaf value
   mapping] sees each complete assignment, [mapping ()] reading it out.
   Callers stop early by raising from [leaf]. *)
let search p ~injective ~budget ~total ~cut ~leaf (t : Instance.t) =
  let n1 = Array.length p.order in
  let assigned = Array.make n1 (-1) in
  let used = Hashtbl.create 97 in
  let consistent v u =
    (not (injective && Hashtbl.mem used u))
    && Array.for_all
         (fun v' -> assigned.(v') < 0 || BM.get t.tc2 u assigned.(v'))
         (D.succ t.g1 v)
    && Array.for_all
         (fun v' -> assigned.(v') < 0 || BM.get t.tc2 assigned.(v') u)
         (D.pred t.g1 v)
  in
  let mapping () =
    let pairs = ref [] in
    for v = n1 - 1 downto 0 do
      if assigned.(v) >= 0 then pairs := (v, assigned.(v)) :: !pairs
    done;
    !pairs
  in
  let rec go k value =
    Budget.tick_exn budget;
    if k = n1 then leaf value mapping
    else if not (cut (value +. p.suffix.(k))) then begin
      let v = p.order.(k) in
      Array.iter
        (fun u ->
          if consistent v u then begin
            assigned.(v) <- u;
            if injective then Hashtbl.add used u ();
            go (k + 1) (value +. pair_value p.objective t v u);
            assigned.(v) <- -1;
            if injective then Hashtbl.remove used u
          end)
        p.cands.(v);
      if not total then go (k + 1) value
    end
  in
  go 0 0.

(* [solve]'s pass, also returning its plan and the optimum's value; a leaf
   that reaches the root's bound ends it, since nothing can beat that *)
let optimise ~injective ~budget ~objective (t : Instance.t) =
  let steps0 = Budget.steps_used budget in
  Phom_obs.Obs.span "exact" @@ fun () ->
  let p = plan ~objective (Instance.candidates t) t in
  let best = ref [] and best_value = ref neg_infinity in
  let exception Solved in
  let leaf value mapping =
    if value > !best_value then begin
      best_value := value;
      best := mapping ();
      if value >= p.suffix.(0) then raise Solved
    end
  in
  let status =
    match
      search p ~injective ~budget ~total:false
        ~cut:(fun bound -> bound <= !best_value)
        ~leaf t
    with
    | () -> Budget.Complete
    | exception Solved -> Budget.Complete
    | exception Budget.Exhausted_budget -> Budget.status budget
  in
  let d = Budget.steps_used budget - steps0 in
  Phom_obs.Obs.add (Phom_obs.Obs.counter "phom_solver_exact_steps_total") d;
  Phom_obs.Obs.span_steps "exact" d;
  (p, { mapping = Mapping.normalize !best; status }, !best_value)

let solve ?(injective = false) ?budget ~objective t =
  let _, outcome, _ =
    optimise ~injective ~budget:(resolve_budget budget) ~objective t
  in
  outcome

let enumerate_optimal ?(injective = false) ?budget ?(limit = 100)
    ~objective t =
  (* one token covers both the optimisation and the enumeration pass *)
  let budget = resolve_budget budget in
  let p, opt, best_value = optimise ~injective ~budget ~objective t in
  let target = best_value -. 1e-9 in
  let found = ref [] and count = ref 0 in
  let exception Truncated in
  let leaf value mapping =
    if value >= target then begin
      (* truncated only once an optimum beyond [limit] turns up *)
      if !count >= limit then raise Truncated;
      found := mapping () :: !found;
      incr count
    end
  in
  let exhaustive =
    opt.status = Budget.Complete
    &&
    match
      search p ~injective ~budget ~total:false
        ~cut:(fun bound -> bound < target)
        ~leaf t
    with
    | () -> true
    | exception (Truncated | Budget.Exhausted_budget) -> false
  in
  (List.sort compare !found, exhaustive)

let decide ?(injective = false) ?budget ?candidates (t : Instance.t) =
  let budget = resolve_budget budget in
  let cands =
    match candidates with Some c -> c | None -> Instance.candidates t
  in
  if Array.exists (fun row -> Array.length row = 0) cands then Some false
  else
    let exception Found in
    match
      search
        (plan ~objective:Cardinality cands t)
        ~injective ~budget ~total:true
        ~cut:(fun _ -> false)
        ~leaf:(fun _ _ -> raise Found)
        t
    with
    | () -> Some false
    | exception Found -> Some true
    | exception Budget.Exhausted_budget -> None
