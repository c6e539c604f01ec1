(** WSAT(OIP): stochastic local search for over-constrained integer
    programs, after Walser (LNCS 1637), the solver the paper licensed.

    The search walks 0–1 assignments: at each step it picks a violated
    constraint (hard constraints first), then flips one of its variables —
    a random one with probability [noise], otherwise the variable whose flip
    most reduces the score (weighted hard violations plus weighted soft
    cost), subject to a tabu tenure with aspiration. Restarts from random
    assignments after [max_flips] flips without success.

    The walk runs on {!Pb.problem}'s flat rows. A solve builds one
    var→rows index ({!Pb.var_rows}) and one state, which each try resets
    in place; a flip allocates nothing. Given the seed, the walk is fixed
    by the problem's order contract (see {!Pb}): a try draws each
    variable's start in variable order and adds the violated rows to the
    violated set in row order; a flip updates its variable's rows in
    descending row order, a satisfied row leaving the set by a swap with
    its last member; the violated row to repair is drawn among the hard
    ones if any is violated, else among all, counting from the last one
    in the set back; and a tie between candidate flips goes to the row's
    earlier term. *)

type params = {
  max_flips : int;  (** flips per try *)
  max_tries : int;  (** random restarts *)
  noise : float;  (** random-walk probability, in [0,1] *)
  tabu : int;  (** tabu tenure in flips; 0 disables *)
  hard_weight : int;  (** score weight of one unit of hard violation *)
  init_density : float;
      (** probability that a variable starts at 1 in a restart; pure
          satisfaction problems terminate at the first feasible point, so
          this controls how dense that point is *)
  seed : int;  (** RNG seed; runs are deterministic given the seed *)
}

val default_params : params
(** 20_000 flips, 4 tries, noise 0.1, tabu 3, hard weight 1000, density
    0.5, seed 42. *)

type result = {
  assignment : bool array;
      (** best assignment found (feasible one if any was found) *)
  feasible : bool;  (** all hard constraints hold in [assignment] *)
  hard_violations : int;
  soft_cost : int;
  flips_used : int;
  tries_used : int;
}

val solve : ?params:params -> Pb.problem -> result
(** Minimize. The solver is sound but incomplete: [feasible = false] means
    no feasible assignment was {e found}, not that none exists — pair with
    {!Exact} when a certificate of infeasibility is needed. *)
