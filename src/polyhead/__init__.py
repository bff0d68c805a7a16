"""Fixed polytope classifier heads with maximal angular-margin training."""
