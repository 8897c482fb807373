(* Sparse revised simplex with bounded variables over Compiled.t.

   Column layout (all indices in one namespace):
     [0, n)        structural variables, in model order;
     [n, nt)       one slack per row (coefficient exactly 1);
     [nt, nt + m)  artificials, one per row, existing only where the
                   cold start needs them (coefficient [art_sign]).

   The basis is carried by a sparse LU factorization ({!Lu}: singleton
   peeling, then Markowitz ordering with threshold partial pivoting)
   plus a product-form eta file — one eta per pivot, capturing the
   FTRAN column B^-1 A_e so the factorization itself is never touched
   between refactorizations.  FTRAN applies the LU triangular solves
   then the etas in pivot order; BTRAN applies the transposed etas in
   reverse order then the transposed LU solves.  All four triangular
   passes run in scatter form and skip exactly-zero components, which
   is where right-hand-side hypersparsity (unit vectors, slack
   columns, short structural columns) pays off.

   Refactorization is policy-driven ([refactor_policy]): a fixed pivot
   count, or (the default) whenever the eta file outgrows the
   factorization by a configured factor.  Every optimal solve finishes
   on a fresh factorization — the reported values come from one clean
   FTRAN, not from the incrementally updated basic values — and checks
   an optimality certificate on that factor (primal feasibility, the
   reduced-cost sign of every bound status, complementary slackness,
   and the primal objective against the dual one).  The certificate
   depends only on the model and the returned basis, never on how the
   linear algebra reached it.  Everything the iteration touches lives
   in a reusable workspace, so the pivot loop performs no allocation
   beyond eta-file growth. *)

module C = Compiled

type solution = { objective : float; values : float array }

type partial = { phase : int; iterations : int }

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit of partial

(* Column status markers (also the wire format inside [basis]). *)
let st_basic = 0

let st_lo = 1

let st_up = 2

let st_fr = 3

type basis = {
  b_n : int;
  b_m : int;
  b_stat : Bytes.t;  (* nt entries: status of every structural/slack column *)
  b_rows : int array;  (* basic column per row; nt + i marks a kept artificial *)
  b_sign : float array;  (* artificial sign per row, 0.0 where none *)
}

type pricing = Bland | Dantzig | Steepest_edge

type refactor_policy =
  | Pivots of int
  | Eta_fill of { max_pivots : int; growth : float }

let default_refactor = Eta_fill { max_pivots = 256; growth = 2.0 }

type stats = {
  pivots : int;
  phase1_pivots : int;
  dual_pivots : int;
  bound_flips : int;
  refactorizations : int;
  bland_pivots : int;
  flops : int;
  lu_fill_in_nnz : int;
  lu_eta_nnz : int;
  ftran_sparse_hits : int;
  btran_sparse_hits : int;
  certificate_failures : int;
}

let pp_status ppf = function
  | Optimal s -> Format.fprintf ppf "optimal(%g)" s.objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iter_limit p ->
    Format.fprintf ppf "iteration-limit(phase %d, %d pivots)" p.phase
      p.iterations

type workspace = {
  mutable cap_m : int;
  mutable cap_c : int;
  mutable xb : float array;  (* basic values per row *)
  mutable y : float array;  (* BTRAN result: c_B B^-1 *)
  mutable w : float array;  (* FTRAN result: B^-1 A_e *)
  mutable rw : float array;  (* rhs scratch *)
  mutable basis : int array;  (* basic column per row *)
  mutable art_sign : float array;  (* per-row artificial sign, 0 = none *)
  mutable vstat : int array;  (* per-column status *)
  mutable xval : float array;  (* nonbasic column values *)
  mutable dj : float array;  (* reduced costs *)
  mutable alpha : float array;  (* pivot row *)
  mutable refw : float array;  (* devex reference weights *)
  mutable cost : float array;  (* current-phase costs *)
  (* basis factorization state *)
  lu : Lu.t;  (* current factorization, rebuilt in place *)
  mutable lutmp : float array;  (* permuted solve scratch, cap_m *)
  mutable rho : float array;  (* BTRAN-of-unit-vector scratch, cap_m *)
  mutable bptr : int array;  (* basis assembly: column pointers, cap_m+1 *)
  mutable brow : int array;
  mutable bval : float array;
  (* Product-form eta file: eta k pivots on row eta_row.(k) with pivot
     element eta_piv.(k); off-pivot nonzeros of B^-1 A_e live in
     eta_idx/eta_val.(eta_ptr.(k) .. eta_ptr.(k+1) - 1). *)
  mutable eta_n : int;
  mutable eta_row : int array;
  mutable eta_piv : float array;
  mutable eta_ptr : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
}

let grow_int a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0 in
    Array.blit a 0 b 0 used;
    b
  end

let grow_flt a used need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need ((2 * Array.length a) + 8)) 0.0 in
    Array.blit a 0 b 0 used;
    b
  end

let workspace () =
  {
    cap_m = 0;
    cap_c = 0;
    xb = [||];
    y = [||];
    w = [||];
    rw = [||];
    basis = [||];
    art_sign = [||];
    vstat = [||];
    xval = [||];
    dj = [||];
    alpha = [||];
    refw = [||];
    cost = [||];
    lu = Lu.create ();
    lutmp = [||];
    rho = [||];
    bptr = [||];
    brow = [||];
    bval = [||];
    eta_n = 0;
    eta_row = [||];
    eta_piv = [||];
    eta_ptr = [| 0 |];
    eta_idx = [||];
    eta_val = [||];
  }

let ensure ws m ncols =
  if ws.cap_m < m then begin
    ws.cap_m <- m;
    ws.xb <- Array.make m 0.0;
    ws.y <- Array.make m 0.0;
    ws.w <- Array.make m 0.0;
    ws.rw <- Array.make m 0.0;
    ws.basis <- Array.make m 0;
    ws.art_sign <- Array.make m 0.0;
    ws.lutmp <- Array.make m 0.0;
    ws.rho <- Array.make m 0.0;
    ws.bptr <- Array.make (m + 1) 0
  end;
  if ws.cap_c < ncols then begin
    ws.cap_c <- ncols;
    ws.vstat <- Array.make ncols st_lo;
    ws.xval <- Array.make ncols 0.0;
    ws.dj <- Array.make ncols 0.0;
    ws.alpha <- Array.make ncols 0.0;
    ws.refw <- Array.make ncols 1.0;
    ws.cost <- Array.make ncols 0.0
  end;
  ws

exception Stop of status * basis option

exception Fallback (* abandon the warm-start attempt, re-solve cold *)

exception Stuck of int
(* numerically hopeless state (singular refactorization, or a forced
   pivot below tolerance on a fresh factorization) in the given phase.
   Distinct from budget exhaustion: a warm-started solve that gets stuck
   restarts cold (the hint led to a bad vertex, not the problem); a cold
   solve that gets stuck restarts once more with a stricter pivot
   tolerance, and only if that gets stuck too reports {!Iter_limit}. *)

(* Column i of the basis matrix in CSC form (basis position i = column
   i of B), assembled into the workspace's reusable buffers; returns the
   entry count. *)
let assemble_basis ws c m =
  let n = c.C.n and nt = c.C.nt in
  let len = ref 0 in
  ws.bptr <- grow_int ws.bptr 0 (m + 1);
  ws.bptr.(0) <- 0;
  for i = 0 to m - 1 do
    let k = ws.basis.(i) in
    let need = if k < n then c.C.col_ptr.(k + 1) - c.C.col_ptr.(k) else 1 in
    ws.brow <- grow_int ws.brow !len (!len + need);
    ws.bval <- grow_flt ws.bval !len (!len + need);
    if k < n then
      for p = c.C.col_ptr.(k) to c.C.col_ptr.(k + 1) - 1 do
        ws.brow.(!len) <- c.C.col_row.(p);
        ws.bval.(!len) <- c.C.col_val.(p);
        incr len
      done
    else if k < nt then begin
      ws.brow.(!len) <- k - n;
      ws.bval.(!len) <- 1.0;
      incr len
    end
    else begin
      ws.brow.(!len) <- k - nt;
      ws.bval.(!len) <- ws.art_sign.(k - nt);
      incr len
    end;
    ws.bptr.(i + 1) <- !len
  done;
  !len

let solve_compiled ?(pricing = Steepest_edge) ?(max_iter = 100000)
    ?(eps = 1e-7) ?(refactor = default_refactor) ?basis:hint ?ws c =
  let n = c.C.n and m = c.C.m and nt = c.C.nt in
  let ncols = nt + m in
  let ws = ensure (match ws with Some w -> w | None -> workspace ()) m ncols in
  let policy = refactor in
  let feas_tol = eps *. 0.01 in
  (* Smallest pivot the ratio tests accept; raised for the strict retry
     below. *)
  let piv_tol = ref 1e-9 in
  let rtol = 1e-9 in
  let rhs_scale =
    let s = ref 1.0 in
    for i = 0 to m - 1 do
      s := Float.max !s (Float.abs c.C.rhs.(i))
    done;
    !s
  in
  (* Artificials share one upper bound: +oo during phase 1, 0 after. *)
  let art_ub = ref infinity in
  let lbx j = if j < nt then c.C.lb.(j) else 0.0 in
  let ubx j = if j < nt then c.C.ub.(j) else !art_ub in
  let primal_pivots = ref 0
  and p1_pivots = ref 0
  and dual_pivots = ref 0
  and flips = ref 0
  and refacts = ref 0
  and blands = ref 0
  and flops = ref 0
  and since_refactor = ref 0
  and fill_nnz = ref 0
  and eta_total = ref 0
  and fhits = ref 0
  and bhits = ref 0
  and cert_failures = ref 0
  and cur_lu_nnz = ref 0
  and cur_eta_nnz = ref 0 in
  let total_pivots () = !primal_pivots + !dual_pivots in
  let stats () =
    {
      pivots = total_pivots ();
      phase1_pivots = !p1_pivots;
      dual_pivots = !dual_pivots;
      bound_flips = !flips;
      refactorizations = !refacts;
      bland_pivots = !blands;
      flops = !flops;
      lu_fill_in_nnz = !fill_nnz;
      lu_eta_nnz = !eta_total;
      ftran_sparse_hits = !fhits;
      btran_sparse_hits = !bhits;
      certificate_failures = !cert_failures;
    }
  in
  let limit phase = Stop (Iter_limit { phase; iterations = total_pivots () }, None) in
  (* ---- factorization + product-form eta file ------------------------- *)
  (* Flop charging is "honest": 2 per entry actually multiplied-and-
     accumulated (no dense m^2/m^3 formulas), so the counter measures
     real work. *)
  let eta_reset () =
    ws.eta_n <- 0;
    if Array.length ws.eta_ptr = 0 then ws.eta_ptr <- Array.make 8 0;
    ws.eta_ptr.(0) <- 0;
    cur_eta_nnz := 0
  in
  (* Record ws.w (= B^-1 A_e) as the eta of a pivot on row [r]. *)
  let eta_append r =
    let k = ws.eta_n in
    ws.eta_row <- grow_int ws.eta_row k (k + 1);
    ws.eta_piv <- grow_flt ws.eta_piv k (k + 1);
    ws.eta_ptr <- grow_int ws.eta_ptr (k + 1) (k + 2);
    let base = ws.eta_ptr.(k) in
    let cnt = ref 0 in
    for i = 0 to m - 1 do
      if i <> r && ws.w.(i) <> 0.0 then incr cnt
    done;
    ws.eta_idx <- grow_int ws.eta_idx base (base + !cnt);
    ws.eta_val <- grow_flt ws.eta_val base (base + !cnt);
    let pos = ref base in
    for i = 0 to m - 1 do
      if i <> r && ws.w.(i) <> 0.0 then begin
        ws.eta_idx.(!pos) <- i;
        ws.eta_val.(!pos) <- ws.w.(i);
        incr pos
      end
    done;
    ws.eta_row.(k) <- r;
    ws.eta_piv.(k) <- ws.w.(r);
    ws.eta_ptr.(k + 1) <- !pos;
    ws.eta_n <- k + 1;
    cur_eta_nnz := !cur_eta_nnz + !cnt + 1;
    eta_total := !eta_total + !cnt + 1
  in
  (* FTRAN tail: apply E_1^-1 .. E_k^-1 in pivot order.  An eta whose
     pivot component is exactly zero is a no-op (skip). *)
  let eta_ftran v =
    for k = 0 to ws.eta_n - 1 do
      let r = ws.eta_row.(k) in
      let xr = v.(r) in
      if xr = 0.0 then incr fhits
      else begin
        let xr = xr /. ws.eta_piv.(k) in
        v.(r) <- xr;
        let b = ws.eta_ptr.(k) and e = ws.eta_ptr.(k + 1) in
        flops := !flops + 1 + (2 * (e - b));
        for p = b to e - 1 do
          let i = ws.eta_idx.(p) in
          v.(i) <- v.(i) -. (ws.eta_val.(p) *. xr)
        done
      end
    done
  in
  (* BTRAN head: apply E_k^-T .. E_1^-T (reverse order); each transposed
     eta only rewrites its pivot component. *)
  let eta_btran v =
    for k = ws.eta_n - 1 downto 0 do
      let r = ws.eta_row.(k) in
      let b = ws.eta_ptr.(k) and e = ws.eta_ptr.(k + 1) in
      let s = ref v.(r) in
      for p = b to e - 1 do
        s := !s -. (ws.eta_val.(p) *. v.(ws.eta_idx.(p)))
      done;
      flops := !flops + 1 + (2 * (e - b));
      v.(r) <- !s /. ws.eta_piv.(k)
    done
  in
  (* v := B^-1 v (factorization then etas); v := B^-T v (etas then
     transposed factorization). *)
  let apply_ftran v =
    let fl, sk = Lu.ftran ws.lu ~x:v ~tmp:ws.lutmp in
    flops := !flops + fl;
    fhits := !fhits + sk;
    eta_ftran v
  in
  let apply_btran v =
    eta_btran v;
    let fl, sk = Lu.btran ws.lu ~x:v ~tmp:ws.lutmp in
    flops := !flops + fl;
    bhits := !bhits + sk
  in
  let refactor () =
    let len = assemble_basis ws c m in
    Lu.refactor ws.lu ~m ~ptr:ws.bptr ~row:ws.brow ~vals:ws.bval ()
    && begin
      let lu = ws.lu in
      incr refacts;
      since_refactor := 0;
      eta_reset ();
      cur_lu_nnz := Lu.nnz lu;
      fill_nnz := !fill_nnz + max 0 (Lu.nnz lu - len);
      flops := !flops + Lu.flops lu;
      true
    end
  in
  let need_refactor () =
    match policy with
    | Pivots k -> !since_refactor >= k
    | Eta_fill { max_pivots; growth } ->
      !since_refactor >= max_pivots
      || !since_refactor > 0
         && float_of_int !cur_eta_nnz > growth *. float_of_int (!cur_lu_nnz + m)
  in
  (* ---- kernel operations ---------------------------------------------- *)
  let load_residual () =
    (* ws.rw := rhs - N x_N, charged at the entries actually touched *)
    Array.blit c.C.rhs 0 ws.rw 0 m;
    let t = ref 0 in
    for j = 0 to nt - 1 do
      if ws.vstat.(j) <> st_basic && ws.xval.(j) <> 0.0 then begin
        let x = ws.xval.(j) in
        if j < n then begin
          t := !t + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
          for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
            let r = c.C.col_row.(p) in
            ws.rw.(r) <- ws.rw.(r) -. (c.C.col_val.(p) *. x)
          done
        end
        else begin
          t := !t + 2;
          ws.rw.(j - n) <- ws.rw.(j - n) -. x
        end
      end
    done;
    flops := !flops + !t
  in
  let compute_xb () =
    load_residual ();
    apply_ftran ws.rw;
    Array.blit ws.rw 0 ws.xb 0 m
  in
  let btran () =
    for i = 0 to m - 1 do
      ws.y.(i) <- ws.cost.(ws.basis.(i))
    done;
    apply_btran ws.y
  in
  let reduced_cost j =
    if j < n then begin
      let s = ref ws.cost.(j) in
      flops := !flops + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
      for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
        s := !s -. (c.C.col_val.(p) *. ws.y.(c.C.col_row.(p)))
      done;
      !s
    end
    else begin
      flops := !flops + 1;
      ws.cost.(j) -. ws.y.(j - n)
    end
  in
  let ftran e =
    Array.fill ws.w 0 m 0.0;
    if e < n then
      for p = c.C.col_ptr.(e) to c.C.col_ptr.(e + 1) - 1 do
        ws.w.(c.C.col_row.(p)) <- c.C.col_val.(p)
      done
    else ws.w.(e - n) <- 1.0;
    apply_ftran ws.w
  in
  (* Pivot row r of B^-1 N into ws.alpha (nonbasic columns only):
     rho = B^-T e_r (one hypersparse BTRAN), then price the nonbasic
     columns against it. *)
  let pivot_row r =
    let t = ref 0 in
    Array.fill ws.rho 0 m 0.0;
    ws.rho.(r) <- 1.0;
    apply_btran ws.rho;
    for j = 0 to nt - 1 do
      if ws.vstat.(j) <> st_basic then
        ws.alpha.(j) <-
          (if j < n then begin
             let s = ref 0.0 in
             t := !t + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
             for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
               s := !s +. (ws.rho.(c.C.col_row.(p)) *. c.C.col_val.(p))
             done;
             !s
           end
           else begin
             incr t;
             ws.rho.(j - n)
           end)
      else ws.alpha.(j) <- 0.0
    done;
    flops := !flops + !t
  in
  (* Replace row r's basic column with e (ws.w must hold B^-1 A_e):
     append one eta; the factorization is untouched. *)
  let apply_pivot r e ~ve ~leave_st ~leave_val =
    let k = ws.basis.(r) in
    ws.vstat.(k) <- leave_st;
    ws.xval.(k) <- leave_val;
    ws.basis.(r) <- e;
    ws.vstat.(e) <- st_basic;
    ws.xb.(r) <- ve;
    eta_append r;
    incr since_refactor
  in
  let devex_update r e =
    if pricing = Steepest_edge then begin
      pivot_row r;
      let ae = ws.w.(r) in
      if Float.abs ae > 1e-12 then begin
        let ge = ws.refw.(e) in
        for j = 0 to nt - 1 do
          if ws.vstat.(j) <> st_basic && j <> e then begin
            let aj = ws.alpha.(j) in
            if aj <> 0.0 then begin
              let q = aj /. ae in
              let cand = q *. q *. ge in
              if cand > ws.refw.(j) then ws.refw.(j) <- cand
            end
          end
        done;
        ws.refw.(ws.basis.(r)) <- Float.max (ge /. (ae *. ae)) 1.0
      end
    end
  in
  let current_z () =
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      let cb = ws.cost.(ws.basis.(i)) in
      if cb <> 0.0 then s := !s +. (cb *. ws.xb.(i))
    done;
    for j = 0 to nt - 1 do
      if ws.vstat.(j) <> st_basic && ws.cost.(j) <> 0.0 && ws.xval.(j) <> 0.0
      then s := !s +. (ws.cost.(j) *. ws.xval.(j))
    done;
    !s
  in
  let choose_entering ~bland =
    let best = ref (-1) and best_score = ref 0.0 in
    (try
       for j = 0 to nt - 1 do
         let st = ws.vstat.(j) in
         if st <> st_basic && lbx j < ubx j then begin
           let d = reduced_cost j in
           ws.dj.(j) <- d;
           let elig =
             (d < -.eps && (st = st_lo || st = st_fr))
             || (d > eps && (st = st_up || st = st_fr))
           in
           if elig then
             if bland then begin
               best := j;
               raise Exit
             end
             else begin
               let score =
                 match pricing with
                 | Steepest_edge -> d *. d /. ws.refw.(j)
                 | Dantzig | Bland -> Float.abs d
               in
               if score > !best_score then begin
                 best_score := score;
                 best := j
               end
             end
         end
       done
     with Exit -> ());
    !best
  in
  (* ---- primal iteration --------------------------------------------- *)
  let primal_phase ~phase =
    let iters = ref 0 in
    let stall = ref 0 in
    let bland = ref (pricing = Bland) in
    let last_z = ref infinity in
    let finished = ref None in
    while !finished = None do
      if need_refactor () then begin
        if not (refactor ()) then raise (Stuck phase);
        compute_xb ()
      end;
      btran ();
      let e = choose_entering ~bland:!bland in
      if e < 0 then finished := Some `Optimal
      else if !iters >= max_iter then finished := Some `Limit
      else begin
        let z = current_z () in
        if z < !last_z -. (1e-12 *. (1.0 +. Float.abs !last_z)) then begin
          last_z := z;
          stall := 0
        end
        else begin
          incr stall;
          if !stall > 200 then bland := true
        end;
        let dir = if ws.dj.(e) < 0.0 then 1.0 else -1.0 in
        ftran e;
        let span = ubx e -. lbx e in
        let best_t = ref span and leave_r = ref (-1) and leave_up = ref false in
        for i = 0 to m - 1 do
          let a = dir *. ws.w.(i) in
          if a > !piv_tol then begin
            let l = lbx ws.basis.(i) in
            if l > neg_infinity then begin
              let t = Float.max 0.0 ((ws.xb.(i) -. l) /. a) in
              if
                t < !best_t -. rtol
                || (t < !best_t +. rtol
                   && !leave_r >= 0
                   &&
                   if !bland then ws.basis.(i) < ws.basis.(!leave_r)
                   else Float.abs ws.w.(i) > Float.abs ws.w.(!leave_r))
              then begin
                if t < !best_t then best_t := t;
                leave_r := i;
                leave_up := false
              end
            end
          end
          else if a < -. !piv_tol then begin
            let u = ubx ws.basis.(i) in
            if u < infinity then begin
              let t = Float.max 0.0 ((u -. ws.xb.(i)) /. -.a) in
              if
                t < !best_t -. rtol
                || (t < !best_t +. rtol
                   && !leave_r >= 0
                   &&
                   if !bland then ws.basis.(i) < ws.basis.(!leave_r)
                   else Float.abs ws.w.(i) > Float.abs ws.w.(!leave_r))
              then begin
                if t < !best_t then best_t := t;
                leave_r := i;
                leave_up := true
              end
            end
          end
        done;
        if !best_t = infinity then finished := Some `Unbounded
        else if !leave_r < 0 then begin
          (* entering variable runs to its opposite bound: no basis change *)
          let t = !best_t in
          ws.xval.(e) <- (if dir > 0.0 then ubx e else lbx e);
          ws.vstat.(e) <- (if dir > 0.0 then st_up else st_lo);
          flops := !flops + (2 * m);
          for i = 0 to m - 1 do
            ws.xb.(i) <- ws.xb.(i) -. (dir *. t *. ws.w.(i))
          done;
          incr flips;
          incr iters
        end
        else begin
          let r = !leave_r in
          if Float.abs ws.w.(r) < 1e-10 then begin
            (* numerically hopeless pivot: refresh the factorization and
               retry; if it is already fresh, give up (cold restart when
               warm-started, Iter_limit otherwise) *)
            if !since_refactor > 0 then begin
              if not (refactor ()) then raise (Stuck phase);
              compute_xb ()
            end
            else raise (Stuck phase)
          end
          else begin
            let t = !best_t in
            let k = ws.basis.(r) in
            let leave_st = if !leave_up then st_up else st_lo in
            let leave_val = if !leave_up then ubx k else lbx k in
            devex_update r e;
            flops := !flops + (2 * m);
            for i = 0 to m - 1 do
              if i <> r then ws.xb.(i) <- ws.xb.(i) -. (dir *. t *. ws.w.(i))
            done;
            let ve = ws.xval.(e) +. (dir *. t) in
            apply_pivot r e ~ve ~leave_st ~leave_val;
            incr iters;
            incr primal_pivots;
            if phase = 1 then incr p1_pivots;
            if !bland then incr blands
          end
        end
      end
    done;
    match !finished with Some r -> r | None -> assert false
  in
  (* ---- phase transitions -------------------------------------------- *)
  let set_phase2_cost () =
    Array.fill ws.cost 0 ncols 0.0;
    let sgn = match c.C.sense with Model.Minimize -> 1.0 | Maximize -> -1.0 in
    for j = 0 to n - 1 do
      ws.cost.(j) <- sgn *. c.C.obj.(j)
    done
  in
  let drive_out_artificials () =
    for i = 0 to m - 1 do
      if ws.basis.(i) >= nt then begin
        pivot_row i;
        let best = ref (-1) and bestv = ref 1e-7 in
        for j = 0 to nt - 1 do
          if ws.vstat.(j) <> st_basic then begin
            let a = Float.abs ws.alpha.(j) in
            if a > !bestv then begin
              bestv := a;
              best := j
            end
          end
        done;
        if !best >= 0 then begin
          (* degenerate pivot: swap the artificial out without moving x *)
          let e = !best in
          ftran e;
          apply_pivot i e ~ve:ws.xval.(e) ~leave_st:st_lo ~leave_val:0.0;
          incr primal_pivots;
          incr p1_pivots
        end
        (* else: redundant row; the artificial stays basic, pinned at 0
           once art_ub drops to 0 *)
      end
    done
  in
  (* Optimality certificate of the current basis, checked on a fresh
     factor (eta file empty, ws.xb just recomputed): one BTRAN for the
     duals and one pass over the columns.  It depends only on the model
     and the basis, never on the pivot path that reached it.  Primal
     residuals get the phase-1 infeasibility allowance (10 eps of the
     largest rhs) plus roundoff relative to the magnitudes involved;
     reduced costs get ten times the pricing threshold plus roundoff
     relative to the largest cost.  Returns whether every check holds:
       - primal feasibility: A x + s = rhs per row, every column inside
         its bounds, kept artificials at zero;
       - dual sign: each nonbasic column's reduced cost has the sign its
         bound status requires (any sign when the column is fixed), and
         basic columns price to zero;
       - complementary slackness: a column with a clearly positive
         (negative) reduced cost sits at its lower (upper) bound;
       - strong duality: c.x equals y.rhs + d_N.x_N. *)
  let certificate () =
    btran ();
    let xcol = ws.alpha (* column values; the pivot-row scratch is free *) in
    let ok = ref true in
    let ptol = 10.0 *. eps *. rhs_scale in
    for j = 0 to nt - 1 do
      if ws.vstat.(j) <> st_basic then xcol.(j) <- ws.xval.(j)
    done;
    for i = 0 to m - 1 do
      let k = ws.basis.(i) in
      if k < nt then xcol.(k) <- ws.xb.(i)
      else if Float.abs ws.xb.(i) > ptol then ok := false
    done;
    (* rows: ws.rw collects the residual, ws.w the absolute activity *)
    Array.blit c.C.rhs 0 ws.rw 0 m;
    for i = 0 to m - 1 do
      let x = xcol.(n + i) in
      ws.rw.(i) <- ws.rw.(i) -. x;
      ws.w.(i) <- Float.abs c.C.rhs.(i) +. Float.abs x
    done;
    for j = 0 to n - 1 do
      let x = xcol.(j) in
      if x <> 0.0 then begin
        flops := !flops + (2 * (c.C.col_ptr.(j + 1) - c.C.col_ptr.(j)));
        for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
          let r = c.C.col_row.(p) and t = c.C.col_val.(p) *. x in
          ws.rw.(r) <- ws.rw.(r) -. t;
          ws.w.(r) <- ws.w.(r) +. Float.abs t
        done
      end
    done;
    for i = 0 to m - 1 do
      if Float.abs ws.rw.(i) > ptol +. (1e-9 *. ws.w.(i)) then ok := false
    done;
    let cmax = ref 0.0 in
    for j = 0 to nt - 1 do
      cmax := Float.max !cmax (Float.abs ws.cost.(j))
    done;
    let dtol = (10.0 *. eps) +. (1e-9 *. !cmax) in
    let primal = ref 0.0 and dual = ref 0.0 and mag = ref 0.0 in
    for i = 0 to m - 1 do
      let t = ws.y.(i) *. c.C.rhs.(i) in
      dual := !dual +. t;
      mag := !mag +. Float.abs t
    done;
    for j = 0 to nt - 1 do
      let x = xcol.(j) and l = c.C.lb.(j) and u = c.C.ub.(j) in
      let btol = ptol +. (1e-9 *. Float.abs x) in
      if x < l -. btol || x > u +. btol then ok := false;
      let d = reduced_cost j in
      let st = ws.vstat.(j) in
      if st = st_basic then begin
        if Float.abs d > dtol then ok := false
      end
      else begin
        if l < u then begin
          if st = st_lo && d < -.dtol then ok := false;
          if st = st_up && d > dtol then ok := false;
          if st = st_fr && Float.abs d > dtol then ok := false
        end;
        let t = d *. x in
        dual := !dual +. t;
        mag := !mag +. Float.abs t
      end;
      if d > dtol && x > l +. btol then ok := false;
      if d < -.dtol && x < u -. btol then ok := false;
      primal := !primal +. (ws.cost.(j) *. x)
    done;
    if Float.abs (!primal -. !dual) > (10.0 *. eps) +. (1e-9 *. !mag) then
      ok := false;
    !ok
  in
  let finish () =
    (* Report from a fresh factorization: the basic values come from one
       clean FTRAN, not from the incrementally updated ones, and the
       certificate is checked against the same factor. *)
    if m > 0 then begin
      if not (refactor ()) then raise (Stuck 2);
      compute_xb ()
    end;
    if not (certificate ()) then incr cert_failures;
    let values = Array.make n 0.0 in
    for j = 0 to n - 1 do
      if ws.vstat.(j) <> st_basic then values.(j) <- ws.xval.(j)
    done;
    for i = 0 to m - 1 do
      let k = ws.basis.(i) in
      if k < n then values.(k) <- ws.xb.(i)
    done;
    let obj = ref c.C.obj_const in
    for j = 0 to n - 1 do
      obj := !obj +. (c.C.obj.(j) *. values.(j))
    done;
    let b_stat = Bytes.create nt in
    for j = 0 to nt - 1 do
      Bytes.unsafe_set b_stat j (Char.unsafe_chr ws.vstat.(j))
    done;
    let b =
      {
        b_n = n;
        b_m = m;
        b_stat;
        b_rows = Array.sub ws.basis 0 m;
        b_sign = Array.sub ws.art_sign 0 m;
      }
    in
    raise (Stop (Optimal { objective = !obj; values }, Some b))
  in
  let phase2_and_finish () =
    set_phase2_cost ();
    Array.fill ws.refw 0 ncols 1.0;
    match primal_phase ~phase:2 with
    | `Optimal -> finish ()
    | `Unbounded -> raise (Stop (Unbounded, None))
    | `Limit -> raise (limit 2)
  in
  (* ---- cold start ---------------------------------------------------- *)
  let cold () =
    art_ub := infinity;
    Array.fill ws.art_sign 0 m 0.0;
    Array.fill ws.vstat 0 ncols st_lo;
    Array.fill ws.xval 0 ncols 0.0;
    for j = 0 to nt - 1 do
      if c.C.lb.(j) > c.C.ub.(j) then raise (Stop (Infeasible, None))
    done;
    for j = 0 to n - 1 do
      let l = c.C.lb.(j) and u = c.C.ub.(j) in
      if l > neg_infinity then begin
        ws.vstat.(j) <- st_lo;
        ws.xval.(j) <- l
      end
      else if u < infinity then begin
        ws.vstat.(j) <- st_up;
        ws.xval.(j) <- u
      end
      else begin
        ws.vstat.(j) <- st_fr;
        ws.xval.(j) <- 0.0
      end
    done;
    (* residual of each row at the nonbasic point decides slack vs
       artificial start *)
    Array.blit c.C.rhs 0 ws.rw 0 m;
    for j = 0 to n - 1 do
      let x = ws.xval.(j) in
      if x <> 0.0 then
        for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
          let r = c.C.col_row.(p) in
          ws.rw.(r) <- ws.rw.(r) -. (c.C.col_val.(p) *. x)
        done
    done;
    let need_art = ref false in
    for i = 0 to m - 1 do
      let sj = n + i in
      let sl = c.C.lb.(sj) and su = c.C.ub.(sj) in
      let r = ws.rw.(i) in
      if r >= sl -. feas_tol && r <= su +. feas_tol then begin
        ws.vstat.(sj) <- st_basic;
        ws.basis.(i) <- sj;
        ws.xb.(i) <- r
      end
      else begin
        let sv = if r < sl then sl else su in
        ws.vstat.(sj) <- (if r < sl then st_lo else st_up);
        ws.xval.(sj) <- sv;
        let resid = r -. sv in
        ws.art_sign.(i) <- (if resid >= 0.0 then 1.0 else -1.0);
        ws.basis.(i) <- nt + i;
        ws.vstat.(nt + i) <- st_basic;
        ws.xb.(i) <- Float.abs resid;
        need_art := true
      end
    done;
    (* The initial basis is a diagonal of +-1 entries: it cannot be
       singular. *)
    if not (refactor ()) then raise (Stuck 1);
    if !need_art then begin
      Array.fill ws.cost 0 ncols 0.0;
      for i = 0 to m - 1 do
        if ws.art_sign.(i) <> 0.0 then ws.cost.(nt + i) <- 1.0
      done;
      Array.fill ws.refw 0 ncols 1.0;
      (match primal_phase ~phase:1 with
      | `Optimal -> ()
      | `Unbounded ->
        (* a sum of nonnegative artificials cannot be unbounded below:
           numerical trouble, reported as a budget stop *)
        raise (limit 1)
      | `Limit -> raise (limit 1));
      let z1 = current_z () in
      if z1 > eps *. 10.0 *. rhs_scale then raise (Stop (Infeasible, None));
      drive_out_artificials ()
    end;
    art_ub := 0.0;
    phase2_and_finish ()
  in
  (* ---- warm start: dual reoptimization ------------------------------- *)
  let primal_feasible () =
    let ok = ref true in
    for i = 0 to m - 1 do
      let k = ws.basis.(i) in
      if ws.xb.(i) < lbx k -. feas_tol || ws.xb.(i) > ubx k +. feas_tol then
        ok := false
    done;
    !ok
  in
  let warm b =
    if b.b_n <> n || b.b_m <> m then raise Fallback;
    for j = 0 to nt - 1 do
      if c.C.lb.(j) > c.C.ub.(j) then raise (Stop (Infeasible, None))
    done;
    Array.fill ws.vstat 0 ncols st_lo;
    Array.fill ws.xval 0 ncols 0.0;
    Array.fill ws.art_sign 0 m 0.0;
    for j = 0 to nt - 1 do
      ws.vstat.(j) <- Char.code (Bytes.get b.b_stat j)
    done;
    for i = 0 to m - 1 do
      let k = b.b_rows.(i) in
      if k < 0 || k >= ncols then raise Fallback;
      if k >= nt then begin
        if k <> nt + i || b.b_sign.(i) = 0.0 then raise Fallback;
        ws.art_sign.(i) <- b.b_sign.(i)
      end;
      ws.basis.(i) <- k;
      ws.vstat.(k) <- st_basic
    done;
    art_ub := 0.0;
    (* snap nonbasics onto the current bounds *)
    for j = 0 to nt - 1 do
      let st = ws.vstat.(j) in
      if st <> st_basic then begin
        let l = c.C.lb.(j) and u = c.C.ub.(j) in
        let st =
          if l = neg_infinity && u = infinity then st_fr
          else if st = st_lo then if l > neg_infinity then st_lo else st_up
          else if st = st_up then if u < infinity then st_up else st_lo
          else if l > neg_infinity then st_lo
          else st_up
        in
        ws.vstat.(j) <- st;
        ws.xval.(j) <-
          (if st = st_lo then l else if st = st_up then u else 0.0)
      end
    done;
    if not (refactor ()) then raise Fallback;
    compute_xb ();
    set_phase2_cost ();
    Array.fill ws.refw 0 ncols 1.0;
    btran ();
    let dual_ok = ref true in
    for j = 0 to nt - 1 do
      let st = ws.vstat.(j) in
      if st <> st_basic && lbx j < ubx j then begin
        let d = reduced_cost j in
        ws.dj.(j) <- d;
        if
          (d < -.eps && (st = st_lo || st = st_fr))
          || (d > eps && (st = st_up || st = st_fr))
        then dual_ok := false
      end
    done;
    if not !dual_ok then
      if primal_feasible () then phase2_and_finish () else raise Fallback;
    (* dual simplex loop *)
    let max_dual = (2 * m) + 200 in
    let iters = ref 0 in
    let continue_dual = ref true in
    while !continue_dual do
      if !iters > max_dual then raise Fallback;
      if !iters >= max_iter then raise (limit 2);
      if need_refactor () then begin
        if not (refactor ()) then raise Fallback;
        compute_xb ()
      end;
      let r = ref (-1) and viol = ref feas_tol and need_up = ref false in
      for i = 0 to m - 1 do
        let k = ws.basis.(i) in
        let below = lbx k -. ws.xb.(i) and above = ws.xb.(i) -. ubx k in
        if below > !viol then begin
          viol := below;
          r := i;
          need_up := true
        end;
        if above > !viol then begin
          viol := above;
          r := i;
          need_up := false
        end
      done;
      if !r < 0 then continue_dual := false
      else begin
        let r = !r in
        btran ();
        for j = 0 to nt - 1 do
          if ws.vstat.(j) <> st_basic then ws.dj.(j) <- reduced_cost j
        done;
        pivot_row r;
        let e = ref (-1) and best = ref infinity in
        for j = 0 to nt - 1 do
          let st = ws.vstat.(j) in
          if st <> st_basic && lbx j < ubx j then begin
            let a = ws.alpha.(j) in
            let good =
              if !need_up then
                (a < -. !piv_tol && (st = st_lo || st = st_fr))
                || (a > !piv_tol && (st = st_up || st = st_fr))
              else
                (a > !piv_tol && (st = st_lo || st = st_fr))
                || (a < -. !piv_tol && (st = st_up || st = st_fr))
            in
            if good then begin
              let ratio = Float.abs ws.dj.(j) /. Float.abs a in
              if
                ratio < !best -. 1e-12
                || (ratio < !best +. 1e-12
                   && !e >= 0
                   && Float.abs a > Float.abs ws.alpha.(!e))
              then begin
                if ratio < !best then best := ratio;
                e := j
              end
            end
          end
        done;
        if !e < 0 then
          (* the violated row cannot be repaired within the nonbasic
             bounds: primal infeasible *)
          raise (Stop (Infeasible, None));
        let e = !e in
        ftran e;
        if Float.abs ws.w.(r) < 1e-10 then raise Fallback;
        let k = ws.basis.(r) in
        let target = if !need_up then lbx k else ubx k in
        let dx = (ws.xb.(r) -. target) /. ws.w.(r) in
        flops := !flops + (2 * m);
        for i = 0 to m - 1 do
          if i <> r then ws.xb.(i) <- ws.xb.(i) -. (dx *. ws.w.(i))
        done;
        let ve = ws.xval.(e) +. dx in
        let leave_st = if !need_up then st_lo else st_up in
        apply_pivot r e ~ve ~leave_st ~leave_val:target;
        incr dual_pivots;
        incr iters
      end
    done;
    (* primal feasible again; a (usually pivot-free) primal phase 2
       verifies optimality and covers residual dual infeasibility *)
    phase2_and_finish ()
  in
  let stuck phase =
    (Iter_limit { phase; iterations = total_pivots () }, None)
  in
  let st, b =
    try
      match hint with
      | Some b -> ( try warm b with Fallback | Stuck _ -> cold ())
      | None -> cold ()
    with
    | Stop (st, b) -> (st, b)
    | Stuck _ -> (
      (* On ill-conditioned models (several rounds of cuts) the default
         ratio test can accept pivots near 1e-9 and reach a basis that no
         longer factors.  One cold retry that refuses pivots below 1e-7
         takes a different path; on the DVS models seen so far it reaches
         the optimum where the first attempt got stuck. *)
      piv_tol := 1e-7;
      try cold () with
      | Stop (st, b) -> (st, b)
      | Stuck phase -> stuck phase)
  in
  (st, b, stats ())

(* ---- basis surgery ---------------------------------------------------- *)

(* Append [rows] fresh rows to a basis, each with its own slack basic:
   exactly the state a dual-simplex warm restart wants after cutting
   planes are appended to the model (the new slacks start primal
   infeasible when their cut is violated, and the dual iteration repairs
   them).  Column layout note: slack columns sit at [n + i], so appending
   rows at the end leaves every existing column index unchanged. *)
let extend_basis (b : basis) ~rows =
  if rows < 0 then invalid_arg "Simplex.extend_basis: negative row count";
  if rows = 0 then b
  else begin
    let nt = b.b_n + b.b_m in
    let nt' = nt + rows in
    let b_stat = Bytes.make nt' (Char.chr st_basic) in
    Bytes.blit b.b_stat 0 b_stat 0 nt;
    let b_rows =
      Array.append b.b_rows (Array.init rows (fun i -> nt + i))
    in
    let b_sign = Array.append b.b_sign (Array.make rows 0.0) in
    { b_n = b.b_n; b_m = b.b_m + rows; b_stat; b_rows; b_sign }
  end

(* ---- tableau extraction (cut separation) ------------------------------ *)

(* A factorized snapshot of a basis against a compiled model's current
   bounds and rhs.  Not a solving path: built once per separation round,
   on a fresh sparse LU of the basis; each tableau row is one BTRAN of a
   unit vector priced against the columns. *)
type tableau = {
  t_c : C.t;
  t_lu : Lu.t;
  t_rows : int array;  (* basic column per row *)
  t_stat : int array;  (* per-column status, nt entries *)
  t_xval : float array;  (* nonbasic column values, nt entries *)
  t_xb : float array;  (* basic values per row *)
  t_rho : float array;  (* BTRAN scratch, m entries *)
  t_tmp : float array;  (* LU solve scratch, m entries *)
}

type col_status = Col_basic | Col_lower | Col_upper | Col_free

let tableau c (b : basis) =
  let n = c.C.n and m = c.C.m and nt = c.C.nt in
  if b.b_n <> n || b.b_m <> m then None
  else if Array.exists (fun k -> k < 0 || k >= nt) b.b_rows then
    None (* kept artificials: no clean tableau over structural+slack *)
  else begin
    let stat = Array.make nt st_lo in
    for j = 0 to nt - 1 do
      stat.(j) <- Char.code (Bytes.get b.b_stat j)
    done;
    Array.iter (fun k -> stat.(k) <- st_basic) b.b_rows;
    (* Snap nonbasic columns onto the current bounds, exactly as the warm
       start does, so the tableau reproduces the vertex the caller's
       solve finished on. *)
    let xval = Array.make nt 0.0 in
    for j = 0 to nt - 1 do
      if stat.(j) <> st_basic then begin
        let l = c.C.lb.(j) and u = c.C.ub.(j) in
        let st =
          if l = neg_infinity && u = infinity then st_fr
          else if stat.(j) = st_lo then if l > neg_infinity then st_lo else st_up
          else if stat.(j) = st_up then if u < infinity then st_up else st_lo
          else if l > neg_infinity then st_lo
          else st_up
        in
        stat.(j) <- st;
        xval.(j) <- (if st = st_lo then l else if st = st_up then u else 0.0)
      end
    done;
    let ws = ensure (workspace ()) m 0 in
    Array.blit b.b_rows 0 ws.basis 0 m;
    ignore (assemble_basis ws c m);
    if not (Lu.refactor ws.lu ~m ~ptr:ws.bptr ~row:ws.brow ~vals:ws.bval ())
    then None
    else begin
      let lu = ws.lu in
      (* xb = B^-1 (rhs - N x_N) *)
      let xb = Array.copy c.C.rhs in
      for j = 0 to nt - 1 do
        if stat.(j) <> st_basic && xval.(j) <> 0.0 then begin
          let x = xval.(j) in
          if j < n then
            for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
              let r = c.C.col_row.(p) in
              xb.(r) <- xb.(r) -. (c.C.col_val.(p) *. x)
            done
          else xb.(j - n) <- xb.(j - n) -. x
        end
      done;
      ignore (Lu.ftran lu ~x:xb ~tmp:ws.lutmp);
      Some
        {
          t_c = c;
          t_lu = lu;
          t_rows = Array.copy b.b_rows;
          t_stat = stat;
          t_xval = xval;
          t_xb = xb;
          t_rho = ws.rho;
          t_tmp = ws.lutmp;
        }
    end
  end

let tableau_rows t = t.t_c.C.m

let tableau_basic_var t r = t.t_rows.(r)

let tableau_basic_value t r = t.t_xb.(r)

let tableau_col_status t j =
  match t.t_stat.(j) with
  | s when s = st_basic -> Col_basic
  | s when s = st_lo -> Col_lower
  | s when s = st_up -> Col_upper
  | _ -> Col_free

let tableau_nonbasic_value t j = t.t_xval.(j)

(* Row [r] of B^-1 [A | I] over every column: entries for nonbasic
   columns, 0.0 for basic ones.  [alpha] must have length >= nt.
   rho = B^-T e_r, then alpha_j = rho . A_j. *)
let tableau_row t r alpha =
  let c = t.t_c in
  let n = c.C.n and m = c.C.m and nt = c.C.nt in
  let rho = t.t_rho in
  Array.fill rho 0 m 0.0;
  rho.(r) <- 1.0;
  ignore (Lu.btran t.t_lu ~x:rho ~tmp:t.t_tmp);
  for j = 0 to nt - 1 do
    if t.t_stat.(j) <> st_basic then
      alpha.(j) <-
        (if j < n then begin
           let s = ref 0.0 in
           for p = c.C.col_ptr.(j) to c.C.col_ptr.(j + 1) - 1 do
             s := !s +. (rho.(c.C.col_row.(p)) *. c.C.col_val.(p))
           done;
           !s
         end
         else rho.(j - n))
    else alpha.(j) <- 0.0
  done

(* ---- Model.t entry points -------------------------------------------- *)

let solve_ext ?max_iter ?eps ?refactor ?basis m =
  solve_compiled ?max_iter ?eps ?refactor ?basis (Compiled.of_model m)

let solve ?max_iter ?eps m =
  let st, _, _ = solve_ext ?max_iter ?eps m in
  st

let solve_from_basis ?max_iter ?eps basis m =
  let st, _, _ = solve_ext ?max_iter ?eps ~basis m in
  st
