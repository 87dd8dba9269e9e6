"""tilelab: exact arithmetic for translational tilings of Z_M."""

from .zm_core import (ZmContext, TileSet, factorize,
                      prime_factorization, euler_phi, radical_quotient)
from .cyclotomic import (CycloProfile, phi_at_one, divides_mask, cyclo_profile,
                         check_T1, check_T2)
from .tiling import (Tiling, verify_direct, div_bits, verify_sands,
                     verify_cyclotomic, tijdeman_orbit_check,
                     dilation_stabilizer, find_complements, iter_complements,
                     enumerate_tilings, iter_tilings, sample_tilings,
                     tiling_to_json, tiling_from_json)
from .structure import box_product, box_product_all_ones
from .splitting import (Parity, SplitReport, FiberedGridProfile,
                        GridStratification, fiber_parity, split_report,
                        check_disjoint_sigma, check_local_distribution,
                        check_aunif, plane_consistency, cross_direction_check,
                        fibered_grid_profile, check_fiber_basic,
                        grid_stratification, consistency3_check,
                        consistent_splitting_check)
from .reduction import (SlabVerdict, SlabStep, PrimeRemovalStep,
                        T2Certificate, project_tile,
                        slab_cond_i, slab_cond_ii, slab_cond_iii,
                        slab_equivalence_check, splittingslab_equiv_check,
                        slabcor_check, plane_bound_check, blowbound_check,
                        prove_t2_largeprime, replay_certificate,
                        certificate_to_json)

__version__ = "0.1.0"
