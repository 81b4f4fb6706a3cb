module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Fit = Phom_graph.Fit
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
   [k..] of [order] can still add. Per depth, [seen] marks a first visit
   done; [fit], the node's {!Fit}, is made on the first revisit and kept
   with the plan, so a second pass reuses its masks. *)
type plan = {
  objective : objective;
  cands : int array array;
  order : int array;
  suffix : float array;
  seen : bool array;
  fit : Fit.t option array;
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
  {
    objective;
    cands;
    order;
    suffix;
    seen = Array.make n1 false;
    fit = Array.make n1 None;
  }

(* The one assignment-tree branch and bound. At depth [k], node [order.(k)]
   takes each candidate consistent under [tc2] with the nodes placed so far
   (and unused, when [injective]), in row order, then stays unmapped unless
   [total]. A depth's first visit probes [tc2] per candidate and placed
   neighbour, so a search that never comes back allocates nothing; a
   revisit asks the node's {!Fit}, which ANDs the placed neighbours' masks.
   Only neighbours at earlier depths are ever placed, so a self-loop never
   constrains. Every search node ticks [budget] once.
   [cut bound] prunes a subtree whose [bound] (the value so far plus
   [suffix.(k)]) cannot pay; [leaf value mapping] sees each complete
   assignment, [mapping ()] reading it out. Callers stop early by raising
   from [leaf]. *)
let search p ~injective ~budget ~total ~cut ~leaf (t : Instance.t) =
  let n1 = Array.length p.order in
  (* [at.(v)]: the index in [v]'s row of its target, -1 while unplaced *)
  let at = Array.make n1 (-1) in
  let used = Bytes.make (if injective then D.n t.g2 else 0) '\000' in
  let edge out u u' = if out then BM.get t.tc2 u u' else BM.get t.tc2 u' u in
  let rec fits ws out u l =
    l = Array.length ws
    || (let w = ws.(l) in
        (at.(w) < 0 || edge out u p.cands.(w).(at.(w)))
        && fits ws out u (l + 1))
  in
  let fit k v =
    match p.fit.(k) with
    | Some f -> f
    | None ->
        let edge_to out w = (w, p.cands.(w), out) in
        let f =
          Fit.make ~tc2:t.tc2 p.cands.(v)
            (Array.append
               (Array.map (edge_to true) (D.succ t.g1 v))
               (Array.map (edge_to false) (D.pred t.g1 v)))
        in
        p.fit.(k) <- Some f;
        f
  in
  let mapping () =
    let pairs = ref [] in
    for v = n1 - 1 downto 0 do
      if at.(v) >= 0 then pairs := (v, p.cands.(v).(at.(v))) :: !pairs
    done;
    !pairs
  in
  let rec go k value =
    Budget.tick_exn budget;
    if k = n1 then leaf value mapping
    else if not (cut (value +. p.suffix.(k))) then begin
      let v = p.order.(k) in
      let row = p.cands.(v) in
      if not p.seen.(k) then begin
        p.seen.(k) <- true;
        let succ = D.succ t.g1 v and pred = D.pred t.g1 v in
        for i = 0 to Array.length row - 1 do
          if fits succ true row.(i) 0 && fits pred false row.(i) 0 then
            place k v value i
        done
      end
      else Fit.iter (fit k v) at 0 (place k v value);
      if not total then go (k + 1) value
    end
  and place k v value i =
    let u = p.cands.(v).(i) in
    if not (injective && Bytes.get used u <> '\000') then begin
      at.(v) <- i;
      if injective then Bytes.set used u '\001';
      go (k + 1) (value +. pair_value p.objective t v u);
      at.(v) <- -1;
      if injective then Bytes.set used u '\000'
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
