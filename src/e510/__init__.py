"""Exact-arithmetic engine for generalized Verma modules over E(5,10)."""

from .linalg import Q, null_space
from .sl5 import (dominance_compare, dual_weight, weyl_dimension,
                  dominant_weights_in_box)
from .uminus import (eps_t, normal_form, sif_subsets, crossing_number,
                     contraction, omega, bd_act, sign_character, l0_adjoint,
                     d_arrow, omega_basis, pbw_monomials)
from .fmodules import TensorModule, DualModule, build_irreducible
from .verma import (VermaElement, MorphismData, act_l0, act_x5d45,
                    singular_vectors, leading_term, morphism_from_singular,
                    apply_morphism, compose, theta_decomposition,
                    dual_morphism, check_morphism, verify_degree_equations,
                    classify, classify_mu, clear_caches, nabla_A, nabla_B, nabla_C,
                    family_instance)

__all__ = [name for name in dir() if not name.startswith("_")]
