type t = { comp : int array; count : int }

(* Iterative Tarjan. The classic recursive formulation overflows the stack on
   long paths, so we keep an explicit frame stack of (node, next-successor
   index) pairs. *)
let compute g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bitset.create n in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let frames = ref [] in
  let push_node v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    Bitset.add on_stack v;
    frames := (v, ref 0) :: !frames
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push_node root;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, next) :: rest ->
            let ss = Digraph.succ g v in
            if !next < Array.length ss then begin
              let w = ss.(!next) in
              incr next;
              if index.(w) < 0 then push_node w
              else if Bitset.mem on_stack w then
                lowlink.(v) <- min lowlink.(v) index.(w)
            end
            else begin
              frames := rest;
              (match rest with
              | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let c = !next_comp in
                incr next_comp;
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> continue := false
                  | w :: tl ->
                      stack := tl;
                      Bitset.remove on_stack w;
                      comp.(w) <- c;
                      if w = v then continue := false
                done
              end
            end
      done
    end
  done;
  { comp; count = !next_comp }

let members t =
  let out = Array.make t.count [] in
  for v = Array.length t.comp - 1 downto 0 do
    out.(t.comp.(v)) <- v :: out.(t.comp.(v))
  done;
  out

let sizes t =
  let out = Array.make t.count 0 in
  Array.iter (fun c -> out.(c) <- out.(c) + 1) t.comp;
  out

let cyclic g t =
  let out = Array.make t.count false in
  Array.iteri (fun c s -> if s > 1 then out.(c) <- true) (sizes t);
  Digraph.iter_edges (fun u v -> if u = v then out.(t.comp.(u)) <- true) g;
  out

let successors g t =
  (* members chained ascending: [next.(u)] is the member after [u], or -1 *)
  let n = Array.length t.comp in
  let head = Array.make t.count (-1) and next = Array.make n (-1) in
  for u = n - 1 downto 0 do
    next.(u) <- head.(t.comp.(u));
    head.(t.comp.(u)) <- u
  done;
  (* [stamp.(d) = c] once [d] is listed for [c]; a component's members are
     scanned together, so the stamp dedups without a hash table *)
  let stamp = Array.make t.count (-1) in
  let start = Array.make (t.count + 1) 0 and succ = Array.make (Digraph.nb_edges g) 0 in
  for c = 0 to t.count - 1 do
    let len = ref start.(c) and u = ref head.(c) in
    while !u >= 0 do
      Array.iter
        (fun v ->
          let d = t.comp.(v) in
          if d <> c && stamp.(d) <> c then begin
            stamp.(d) <- c;
            succ.(!len) <- d;
            incr len
          end)
        (Digraph.succ g !u);
      u := next.(!u)
    done;
    start.(c + 1) <- !len
  done;
  (start, succ)
