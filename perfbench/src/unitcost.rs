//! Unit costs of the `crypto` primitives and the `core.nn` kernels,
//! measured by calling the public functions on their own. With the
//! per-inference and per-session operation counts of the serving run,
//! count × unit cost gives each layer's share of serving time.

use std::hint::black_box;

use guardnn::testnet;
use guardnn_crypto::aes::Aes128;
use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::AesCtr;
use guardnn_crypto::dh::{DhGroup, DhKeyPair};
use guardnn_crypto::rng::TrngModel;
use guardnn_crypto::schnorr::SigningKey;

use crate::stats::median;
use crate::Metric;

/// Timed batches per primitive; the median batch is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of the mean seconds per call of `f` in batches
/// of `per_batch` calls.
fn per_call(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            crate::host::tick();
            let t0 = crate::host::now();
            for _ in 0..per_batch {
                f();
            }
            (crate::host::now() - t0) / per_batch as f64
        })
        .collect();
    median(&samples)
}

pub fn measure() -> Vec<Metric> {
    let key = [0x2Bu8; 16];
    let aes = Aes128::new(&key);
    let mut block = [7u8; 16];
    let aes_s = per_call(20_000, || block = aes.encrypt_block(black_box(&block)));

    let ctr = AesCtr::new(&key);
    let mut buf = [0u8; 512];
    let mut version = 0u64;
    let ctr_s = per_call(2_000, || {
        version += 1;
        ctr.apply_range(0x4000, version, black_box(&mut buf));
    });

    let cmac = Cmac::new(&key);
    let cmac_s = per_call(2_000, || {
        black_box(cmac.compute(black_box(&buf)));
    });

    let group = DhGroup::oakley768();
    let mut rng = TrngModel::from_seed(11);
    let dh_s = per_call(8, || {
        black_box(DhKeyPair::generate(&group, &mut rng));
    });

    let signer = SigningKey::generate(&group, &mut rng);
    let message = b"perfbench attestation report";
    let sig = signer.sign(message, &mut rng);
    let vk = signer.verifying_key();
    let verify_s = per_call(8, || assert!(vk.verify(black_box(message), &sig)));

    let net = crate::serve::network();
    let weights = testnet::deterministic_weights(&net, 3);
    let input = vec![1i32; net.layers()[0].input_elems() as usize];
    let nn_s = per_call(4, || {
        black_box(testnet::reference_forward(
            &net,
            &weights,
            black_box(&input),
        ));
    });

    vec![
        Metric::new("crypto.aes_block_ns", aes_s * 1e9, "ns"),
        Metric::new("crypto.ctr_512B_ns", ctr_s * 1e9, "ns"),
        Metric::new("crypto.cmac_512B_ns", cmac_s * 1e9, "ns"),
        Metric::new("crypto.dh_keygen_us", dh_s * 1e6, "us"),
        Metric::new("crypto.schnorr_verify_us", verify_s * 1e6, "us"),
        Metric::new("core.nn.forward_us", nn_s * 1e6, "us"),
    ]
}
