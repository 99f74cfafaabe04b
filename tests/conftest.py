import pytest

from fade import autodiff as ad


def _propagate(buckets, a):
    """N @ a as its own node, whose backward is the same product (N is symmetric)."""
    return ad.Node(
        ad._bucket_product(buckets, a.value), ((a, lambda g: ad._bucket_product(buckets, g)),)
    )


def _three_node_layer(buckets, h, w):
    """relu(matmul(propagate(...))): the three-node chain ``ad.gcn_layer`` fuses."""
    return ad.relu(ad.matmul(_propagate(buckets, h), w))


@pytest.fixture
def three_node_layer():
    """Reference GCN layer with the same signature as ``ad.gcn_layer``."""
    return _three_node_layer
