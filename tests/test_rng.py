from hyperball.rng import MASK64, draw


def test_draw_replays_the_splitmix64_reference_stream():
    # The first outputs of SplitMix64 seeded with 0; any int seed is masked.
    assert [draw(0, i) for i in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [draw(-1, i) for i in range(50)] == [draw(MASK64, i) for i in range(50)]
    assert draw(2**64 + 5, 7) == draw(5, 7)
