"""Quality-diversity data selection for pretraining corpora.

Clusters an embedded candidate pool, treats clusters as bandit arms, scores
sampled instances with Kronecker-factored influence functions on a
desk-scale transformer, and selects a budgeted subset that balances
influence (quality) against cluster coverage (diversity). A brute-force
oracle layer validates every approximation at tiny scale.

The package root exports nothing: import from the modules
(``influence_select.clustering``, ``influence_select.cli``, ...).
"""
